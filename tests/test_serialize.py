import math
import random

import numpy as np
import pytest

from cavsqueeze.serialize import format_value, write_csv

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
