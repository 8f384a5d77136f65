"""The paper's theorem on every family, near the degree bound.

A linearly normal scroll of degree d >= 2g + 4 and genus g degenerates to a
union of d planes in P^(d-2g+1) whose only singular points are d-2g+2 R_3
and 2g-2 S_4 points.  The table checks that every X, Y and Z build the
program makes up to g = 20 has exactly that profile; the growth law pins
the height of X at the bound d = 2g + 4, where every build lives in P^5.
"""

import pytest

from zappatic import linalg
from zappatic.constructions import build_X, build_Y, build_Z
from zappatic.errors import RangeError, ZappaticError
from zappatic.invariants import invariants_of

FAMILIES = {"X": build_X, "Y": build_Y, "Z": build_Z}


@pytest.fixture(scope="module")
def table():
    """(family, d, g) -> the seed-0 build, or the error it raised, for every
    2 <= g <= 20 and 2g+4 <= d <= 2g+10 that the family allows."""
    out = {}
    for name, build in FAMILIES.items():
        for g in range(2, 21):
            for d in range(2 * g + 4, 2 * g + 11):
                try:
                    out[(name, d, g)] = build(d, g, 0)
                except RangeError:
                    continue
                except ZappaticError as exc:
                    out[(name, d, g)] = exc
    return out


def _theorem_violations(res, d, g):
    """What a degree-d genus-g build gets wrong against the theorem."""
    if isinstance(res, ZappaticError):
        return [repr(res)]
    rep, arr = res.report, res.arrangement
    rows = [row for plane in arr.planes for row in plane.basis]
    checks = {
        "Zappatic": rep.is_zappatic,
        "R_3 count": rep.r_counts == {3: d - 2 * g + 2},
        "S_4 count": rep.s_counts == {4: 2 * g - 2},
        "no cycle point": not rep.f_counts,
        "ambient": arr.ambient_dim == d - 2 * g + 1,
        "spans its ambient": linalg.rank(rows) == d - 2 * g + 2,
        "genus of the dual complex": invariants_of(res.graph).g == g,
    }
    return [name for name, ok in checks.items() if not ok]


def test_theorem_table(table):
    """133 X, 12 Y and 28 Z builds, each with the theorem's profile; a
    failure names its (family, d, g)."""
    failures = {}
    for (name, d, g), res in table.items():
        wrong = _theorem_violations(res, d, g)
        if wrong:
            failures[(name, d, g)] = wrong
    assert not failures, failures
    built = {name: sum(key[0] == name for key in table) for name in FAMILIES}
    assert built == {"X": 133, "Y": 12, "Z": 28}


def test_boundary_growth_law(table):
    """X(2g+4, g) at seed 0 lives in P^5, and its largest basis entry grows
    with g as pinned here; a change to the sampler changes these sizes."""
    sizes = {}
    for g in (4, 10, 16, 20):
        arr = table[("X", 2 * g + 4, g)].arrangement
        assert arr.ambient_dim == 5
        sizes[g] = max(abs(x).bit_length() for p in arr.planes for row in p.basis for x in row)
    assert sizes == {4: 10, 10: 95, 16: 527, 20: 1079}
