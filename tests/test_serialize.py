import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import MANIFEST_KEYS

from cavsqueeze.serialize import format_value, write_csv, write_json, write_manifest

HEADER = ("a", "b", "c", "d")
# one column of cells that repr, str and the empty cell all write; -0.0 and 0.0 compare equal but write apart
_CELLS = [None, True, False, "eos", "", 0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, 1e300, 2.5e-7, 7, -3,
          1.0 / 3.0, np.float64(0.1)]


def _reference(header, blocks):
    """The row-wise bytes: each block expanded to rows, each row joined cell by cell."""
    lines = [",".join(header)]
    for block in blocks:
        rows = next((len(c) for c in block if isinstance(c, list)), 1)
        expanded = [c if isinstance(c, list) else [c] * rows for c in block]
        lines += [",".join(map(format_value, row)) for row in zip(*expanded)]
    return ("\n".join(lines) + "\n").encode()


def _random_blocks(rng):
    """2-4 blocks of a scalar, a column holding -0.0 and 0.0, floats and a scalar; blocks 0 and 1 share a list."""
    shared = [rng.choice(_CELLS) for _ in range(rng.randrange(2, 7))]
    blocks = []
    for i in range(rng.randrange(2, 5)):
        rows = len(shared) if i < 2 else rng.randrange(2, 7)
        mixed = [-0.0, 0.0] + [rng.choice(_CELLS) for _ in range(rows - 2)]
        rng.shuffle(mixed)
        floats = [rng.uniform(-1e3, 1e3) for _ in range(rows)]
        blocks.append([rng.choice(_CELLS), mixed, floats, rng.choice(_CELLS)])
    blocks[0][2], blocks[1][1] = shared, shared
    return blocks


@pytest.mark.parametrize("seed", range(20))
def test_blocks_write_the_row_wise_bytes(tmp_path, seed):
    blocks = _random_blocks(random.Random(seed))
    path = tmp_path / "out.csv"
    write_csv(path, HEADER, blocks)
    assert path.read_bytes() == _reference(HEADER, blocks)


def test_a_shared_list_is_written_in_every_block(tmp_path):
    shared = [None, True, "x", -0.0, 0.0, 0.1]
    blocks = [("first", shared, [1.0] * 6, -0.0), (2.5, [False] * 6, shared, None)]
    path = tmp_path / "out.csv"
    write_csv(path, HEADER, blocks)
    lines = path.read_text().splitlines()
    assert lines[1:7] == [f"first,{c},1.0,-0.0" for c in ("", "true", "x", "-0.0", "0.0", "0.1")]
    assert lines[7:] == [f"2.5,false,{c}," for c in ("", "true", "x", "-0.0", "0.0", "0.1")]
    assert path.read_bytes() == _reference(HEADER, blocks)


def test_a_block_without_a_list_is_one_row(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, HEADER, [(1.0, None, True, "s"), (0.5, [0.0, -0.0], 3, "t")])
    assert path.read_text() == "a,b,c,d\n1.0,,true,s\n0.5,0.0,3,t\n0.5,-0.0,3,t\n"


def test_list_columns_of_unequal_length_are_refused(tmp_path):
    path = tmp_path / "out.csv"
    for block in (([1.0, 2.0], [1.0], 0.0, 0.0), (0.0, [1.0], [1.0, 2.0], 0.0)):
        with pytest.raises(ValueError):
            write_csv(path, HEADER, [(0.0, [1.0], [2.0], 3.0), block])
    assert not path.exists()


def test_non_finite_cells_are_refused_before_the_file_opens(tmp_path):
    path = tmp_path / "out.csv"
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")):
        for block in ((0.0, [1.0, bad], "s", None), (bad, [1.0, 2.0], "s", None)):
            with pytest.raises(ValueError, match="finite"):
                write_csv(path, HEADER, [(0.0, [1.0], [2.0], 3.0), block])
    assert not path.exists()


def test_a_column_whose_sum_overflows_is_written_cell_by_cell(tmp_path):
    # every cell is a finite float, but the sum that vouches for a whole column at once is inf
    path = tmp_path / "out.csv"
    write_csv(path, ("a", "b"), [([1e308, 1e308], [-1e308, 1e308])])
    assert path.read_text() == "a,b\n1e+308,-1e+308\n1e+308,1e+308\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_float_column_with_one_non_finite_cell_is_refused_before_its_directory_exists(tmp_path, bad):
    path = tmp_path / "new" / "out.csv"
    with pytest.raises(ValueError, match="finite"):
        write_csv(path, ("a", "b"), [([0.5, 1.5, 2.5], [1.0, bad, 3.0])])
    assert not path.parent.exists()


def test_columns_mixing_floats_with_none_or_bool_keep_their_text(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("a", "b", "c"), [([0.1, None, -0.0], [True, 2.5, False], [1.0, np.float64(0.25), 7])])
    assert path.read_text() == "a,b,c\n0.1,true,1.0\n,2.5,0.25\n-0.0,false,7\n"


def test_the_directory_is_made_once_and_only_when_missing(tmp_path, monkeypatch):
    made = []
    mkdir = Path.mkdir
    monkeypatch.setattr(Path, "mkdir", lambda self, *args, **kwargs: made.append(self) or mkdir(self, *args, **kwargs))
    out = tmp_path / "a" / "b"
    write_csv(out / "one.csv", ("x",), [([0.5],)])
    assert out in made
    made.clear()
    write_json(out / "two.json", {"y": 1.0})
    write_csv(out / "three.csv", ("x",), [([0.5],)])
    assert made == []
    assert sorted(p.name for p in out.iterdir()) == ["one.csv", "three.csv", "two.json"]


def test_a_manifest_without_fields_records_seed_and_config_as_none(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(path, ["fig2", "--S", "1"], ["fig2.csv"], time.perf_counter(), {})
    manifest = json.loads(path.read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["seed"] is None and manifest["config"] is None
    assert manifest["command"] == ["fig2", "--S", "1"] and manifest["outputs"] == ["fig2.csv"]
    assert manifest["warnings"] == [] and manifest["wall_time_s"] >= 0.0


def test_a_manifest_takes_the_fields_it_is_given(tmp_path):
    path = tmp_path / "manifest.json"
    health = {"n_events": 3, "trajectories_per_s": 2.5, "worst_z": None}
    warned = [{"category": "RuntimeWarning", "message": "m"}]
    write_manifest(path, ["raman-mc"], ["raman_stats.json"], time.perf_counter(), {"seed": 5, "mc_health": health},
                   warnings=warned)
    manifest = json.loads(path.read_text())
    assert set(manifest) == MANIFEST_KEYS | {"mc_health"}
    assert (manifest["seed"], manifest["config"], manifest["mc_health"]) == (5, None, health)
    assert manifest["warnings"] == warned
    write_manifest(path, ["design"], ["design_report.json"], time.perf_counter(), {"config": {"S": 1e4}})
    manifest = json.loads(path.read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert (manifest["seed"], manifest["config"]) == (None, {"S": 1e4})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_manifest_field_is_refused_before_its_directory_exists(tmp_path, bad):
    path = tmp_path / "new" / "manifest.json"
    with pytest.raises(ValueError):
        write_manifest(path, ["raman-mc"], [], time.perf_counter(), {"mc_health": {"worst_z": bad}})
    assert not path.parent.exists()
