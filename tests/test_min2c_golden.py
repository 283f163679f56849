"""Golden ear cells: every minimally 2-connected class of size <= 16.

``tests/golden/min2c_cells.txt`` holds one line ``n m form`` per class of
each ear cell ``(n, m)``, cells in the order ``m = 3..16``, ``n = 3..m``,
and classes in the cell's own (canonical form) order.  ``graphs_by_size``,
``graphs_by_order(n, "minimally_two_connected")`` and every theorem case
are built from these cells, so a change to the ear generator must leave
the file byte-identical.  The file is written by
``PYTHONPATH=src python tests/test_min2c_golden.py``.
"""

from pathlib import Path

from alphaindex import enumeration

GOLDEN = Path(__file__).parent / "golden" / "min2c_cells.txt"


def cell_lines() -> list[str]:
    return [
        f"{n} {m} {form}\n"
        for m in range(3, 17)
        for n in range(3, m + 1)
        for _, _, form in enumeration._ear_classes(n, m)
    ]


def test_golden_min2c_cells():
    lines = GOLDEN.read_text().splitlines(keepends=True)
    assert len(lines) == 1358
    assert cell_lines() == lines


if __name__ == "__main__":
    GOLDEN.write_text("".join(cell_lines()))
    print(f"wrote {GOLDEN}")
