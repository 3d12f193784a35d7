"""The cell kernel: its corner test against the token run it replaces, and
its imports."""

import ast
import random
import sys
from pathlib import Path

import oscillax.cells as cells


def test_corner_test_matches_the_top_set_token_run():
    # the size-k corner passes exactly when the tokens of the top k tracks,
    # moved by the word (demazure on an indicator start), fill tracks 1..k
    rng = random.Random(4141)
    pairs = passed = 0
    while pairs < 100_000:
        n = rng.randint(2, 12)
        word = [rng.randint(2, n) for _ in range(rng.randint(0, n * n))]
        filled = cells.filled_corners(cells.demazure(word, n))
        assert len(filled) == n - 1
        for k in range(1, n):
            top = [0] * (n - k) + [1] * k
            reached = cells.demazure(word, n, top) == (1,) * k + (0,) * (n - k)
            assert filled[k - 1] == reached, (word, n, k)
            passed += reached
            pairs += 1
    assert 0.1 < passed / pairs < 0.9


def test_the_kernel_imports_only_the_standard_library_and_errors():
    tree = ast.parse(Path(cells.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append((node.level, node.module))
    assert imported
    for level, module in imported:
        if level:
            assert (level, module) == (1, "errors"), module
        else:
            top = module.partition(".")[0]
            assert top in sys.stdlib_module_names and top != "fractions", module
