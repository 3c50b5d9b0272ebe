"""Every shipped config through the CLI: twice in one process, the second run
reading the Dirac blocks the first memoised; at J = 10^7, where J only caps
the blocks the lattice sets; a Dirac config after a run whose smaller J left
smaller blocks in the memo; and once through `python -m ptbands.cli -v`.
Every run must exit 0, leave stderr empty (main would turn a numpy warning,
say a complex-to-real cast, into a `warning:` line with exit 0) and write
the bytes of a first run from an empty memo."""

import contextlib
import io
import json
import subprocess
import sys

import pytest

from ptbands import bands
from ptbands.cli import main
from conftest import CONFIGS, SRC_ENV

SHIPPED = sorted(CONFIGS.glob("*.json"))
# its scan solves the whole M_J, so J is its size, not a cap
UNCAPPED = "dirac_prop3"
# below the first rung J' = bands.BLOCK_J0 = 16 of the shipped Dirac blocks
LOW_J = 12


def command(path):
    """Each file in configs/ names its command up to the first '_'."""
    return path.stem.split("_")[0]


def written(out):
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


def run(path, out):
    """The files one in-process run of the config at path writes to out."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command(path), "--config", str(path), "--out", str(out)])
    assert (code, err.getvalue()) == (0, "")
    return written(out)


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    """path -> the files of its first run, made once from an empty block memo."""
    out = tmp_path_factory.mktemp("first")
    files = {}

    def get(path):
        if path not in files:
            bands._decomposed_block.cache_clear()
            files[path] = run(path, out / path.stem)
            assert files[path]
        return files[path]
    return get


def with_J(path, J, tmp_path):
    """A copy of the config at path with J replaced."""
    cfg = json.loads(path.read_text())
    cfg["J"] = J
    copy = tmp_path / f"J{J}" / path.name
    copy.parent.mkdir()
    copy.write_text(json.dumps(cfg))
    return copy


def without_J_line(files):
    """files with the "J" line of bands_summary.json dropped."""
    return {name: b"".join(line for line in data.splitlines(keepends=True)
                           if not (name == "bands_summary.json" and line.startswith(b'  "J": ')))
            for name, data in files.items()}


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_second_run_writes_the_same_bytes(tmp_path, first_run, path):
    expected = first_run(path)
    assert run(path, tmp_path / "second") == expected


@pytest.mark.parametrize("path", [p for p in SHIPPED if p.stem != UNCAPPED], ids=lambda p: p.stem)
def test_J_is_a_cap(tmp_path, first_run, path):
    got = run(with_J(path, 10**7, tmp_path), tmp_path / "capped")
    assert without_J_line(got) == without_J_line(first_run(path))


@pytest.mark.parametrize("path", [p for p in SHIPPED if command(p) == "dirac" and p.stem != UNCAPPED],
                         ids=lambda p: p.stem)
def test_memo_keeps_blocks_of_another_J_apart(tmp_path, first_run, path):
    # the J = 12 run memoises its blocks at J' = 12, where the shipped run reads J' = 16
    expected = first_run(path)
    bands._decomposed_block.cache_clear()
    run(with_J(path, LOW_J, tmp_path), tmp_path / "low")
    assert run(path, tmp_path / "shipped") == expected


def test_module_entry_point_verbose(tmp_path, first_run):
    path = CONFIGS / "dirac_sin2x.json"
    out = tmp_path / "module"
    proc = subprocess.run([sys.executable, "-m", "ptbands.cli", command(path), "--config",
                           str(path), "--out", str(out), "-v"],
                          capture_output=True, text=True, env=SRC_ENV, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"wrote results to {out}\n"
    assert written(out) == first_run(path)
