import contextlib
import io
import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zappatic import cli, constructions, serialize
from zappatic.arrangement import compute_incidence, zappatic_report
from zappatic.cli import JSON_BEGIN, JSON_END, _run_quadric_oracle, build_parser, main
from zappatic.constructions import build_X
from zappatic.errors import InternalCheckError, RangeError
from zappatic.projective import ProjPoint, Subspace, quadrics_through


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def json_block(stdout: str) -> dict:
    body = stdout.split(JSON_BEGIN)[1].split(JSON_END)[0].strip()
    return json.loads(body)


class TestSerialize:
    def test_roundtrip_preserves_report(self, tmp_path):
        res = build_X(8, 2, seed=3)
        path = tmp_path / "x.json"
        serialize.write_arrangement(path, res.arrangement, {"family": "X"})
        arr, meta = serialize.read_arrangement(path)
        assert meta == {"family": "X"}
        assert arr == res.arrangement
        rep = zappatic_report(arr, compute_incidence(arr))
        assert rep.r_counts == res.report.r_counts
        assert rep.s_counts == res.report.s_counts

    def test_fraction_entries_accepted(self, tmp_path):
        data = {
            "ambient_dim": 3,
            "planes": [
                [
                    [[1, 2], [0, 1], [0, 1], [0, 1]],
                    [[0, 1], [1, 3], [0, 1], [0, 1]],
                    [[0, 1], [0, 1], [1, 1], [0, 1]],
                ],
                [
                    [[0, 1], [1, 1], [0, 1], [0, 1]],
                    [[0, 1], [0, 1], [1, 1], [0, 1]],
                    [[0, 1], [0, 1], [0, 1], [1, 1]],
                ],
            ],
        }
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        arr, _ = serialize.read_arrangement(path)
        assert len(arr) == 2
        # row scaling is projectively irrelevant: same canonical planes
        assert arr.planes[0].basis[0][0] == 1

    def test_big_integers_as_strings(self, tmp_path):
        from zappatic.arrangement import Arrangement
        from zappatic.projective import Subspace

        big = 2**80
        arr = Arrangement(
            3, [Subspace(3, [[big, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])]
        )
        path = tmp_path / "big.json"
        serialize.write_arrangement(path, arr)
        raw = json.loads(path.read_text())
        flat = json.dumps(raw)
        assert str(big) in flat
        back, _ = serialize.read_arrangement(path)
        assert back == arr

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(RangeError):
            serialize.read_arrangement(path)


INT64_EDGES = (-(2**63), 2**63 - 1, 2**63, -(2**63) - 1)


def _edge_plane(n, entries):
    """The plane of P^n whose canonical rows are e_i plus the entries at
    columns 3..n (a row of rref form with pivots 1 at columns 0, 1, 2)."""
    from zappatic.projective import Subspace

    rows = [[int(i == c) for c in range(3)] + list(entries[i]) for i in range(3)]
    plane = Subspace(n, rows)
    assert plane.basis == tuple(map(tuple, rows))
    return plane


@st.composite
def arrangements(draw):
    from zappatic.arrangement import Arrangement

    n = draw(st.integers(3, 6))
    entry = st.one_of(st.sampled_from(INT64_EDGES), st.integers(-(2**70), 2**70))
    rows = st.lists(st.lists(entry, min_size=n - 2, max_size=n - 2), min_size=3, max_size=3)
    planes = draw(st.lists(rows, max_size=4, unique_by=repr))
    return Arrangement(n, [_edge_plane(n, p) for p in planes])


METADATA = st.one_of(
    st.none(),
    st.just({}),
    st.dictionaries(
        st.text(),
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(), inner, max_size=3),
            max_leaves=8,
        ),
        max_size=4,
    ),
)


def reference_dumps(arr, metadata):
    from oracles import arrangement_to_dict

    return json.dumps(arrangement_to_dict(arr, metadata), sort_keys=True, indent=1) + "\n"


class TestWriter:
    """serialize.dumps writes the bytes json.dumps writes for the reference object."""

    @settings(max_examples=150)
    @given(arrangements(), METADATA)
    def test_matches_json_dumps(self, arr, metadata):
        assert serialize.dumps(arr, metadata) == reference_dumps(arr, metadata)

    @pytest.mark.parametrize("metadata", [
        None,
        {},
        {"family": "X", "d": 8, "nested": {"b": [1, {"c": None}], "a": [], "e": {}}},
        {"fam\u00edlia": "\u00e9\u4e2d\n\t\"\\", "\U0001d53d": [True, 1.5, -0.0]},
    ])
    def test_int64_edges_and_metadata(self, metadata):
        from zappatic.arrangement import Arrangement

        arr = Arrangement(4, [_edge_plane(4, [INT64_EDGES[:2], INT64_EDGES[2:], (0, 7)])])
        text = serialize.dumps(arr, metadata)
        assert text == reference_dumps(arr, metadata)
        assert f"{2**63 - 1}," in text and f"{-(2**63)}," in text
        assert f'"{2**63}",' in text and f'"{-(2**63) - 1}",' in text

    def test_no_planes(self):
        from zappatic.arrangement import Arrangement

        for metadata in (None, {"family": "X"}):
            text = serialize.dumps(Arrangement(3, []), metadata)
            assert text == reference_dumps(Arrangement(3, []), metadata)
        assert text.endswith('"planes": []\n}\n')


class TestConstructCommand:
    def test_x82_summary_tokens(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["construct", "--family", "X", "--d", "8", "--g", "2", "--seed", "7",
             "--out", str(tmp_path / "x.json")],
            capsys,
        )
        assert code == 0
        assert "R3=6 S4=2 g=2 chi=-1" in out
        payload = json_block(out)
        assert payload["edges"] == 9
        assert (tmp_path / "x.json").exists()

    def test_y_13_3_edges(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["construct", "--family", "Y", "--d", "13", "--g", "3", "--seed", "1",
             "--out", str(tmp_path / "y.json")],
            capsys,
        )
        assert code == 0
        assert "edges=15" in out

    def test_cycle_range_error_exit_2(self, tmp_path, capsys):
        code, _out, err = run_cli(
            ["construct", "--family", "cycle", "--d", "4", "--out", str(tmp_path / "c.json")],
            capsys,
        )
        assert code == 2
        assert "d >= 5" in err

    def test_x_range_error_names_bound(self, tmp_path, capsys):
        code, _out, err = run_cli(
            ["construct", "--family", "X", "--d", "9", "--g", "3", "--out",
             str(tmp_path / "x.json")],
            capsys,
        )
        assert code == 2
        assert "2g+4" in err

    def test_genericity_exhaustion_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(constructions, "RETRY_CAP", 0)
        code, _out, err = run_cli(
            ["construct", "--family", "Z", "--d", "9", "--g", "2", "--out",
             str(tmp_path / "z.json")],
            capsys,
        )
        assert code == 3
        assert err.startswith("error: no generic") and "planes" in err
        assert "Traceback" not in err


class TestClassifyCommand:
    def test_counts_for_x82(self, tmp_path, capsys):
        run_cli(
            ["construct", "--family", "X", "--d", "8", "--g", "2", "--seed", "7",
             "--out", str(tmp_path / "x.json")],
            capsys,
        )
        code, out, _ = run_cli(["classify", str(tmp_path / "x.json")], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("point ")]
        assert len(rows) == 8
        assert sum("-> R3" in r for r in rows) == 6
        assert sum("-> S4" in r for r in rows) == 2
        assert "Zappatic: yes" in out

    def test_disjoint_planes_file(self, tmp_path, capsys):
        from zappatic.arrangement import Arrangement
        from zappatic.projective import Subspace

        a = Subspace(5, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
        b = Subspace(5, [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])
        path = tmp_path / "disj.json"
        serialize.write_arrangement(path, Arrangement(5, [a, b]))
        code, out, _ = run_cli(["classify", str(path)], capsys)
        assert code == 0
        assert "no singular points; Zappatic: yes" in out

    def test_point_meet_file_reports_reason(self, tmp_path, capsys):
        from zappatic.arrangement import Arrangement
        from zappatic.projective import Subspace

        a = Subspace(4, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
        b = Subspace(4, [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
        path = tmp_path / "pm.json"
        serialize.write_arrangement(path, Arrangement(4, [a, b]))
        code, out, _ = run_cli(["classify", str(path)], capsys)
        assert code == 0
        assert "NonZappatic(isolated plane-pair contact)" in out
        assert "Zappatic: no" in out

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("[1,2,3]")
        code, _out, _err = run_cli(["classify", str(path)], capsys)
        assert code == 2


def _rows(entry=None):
    """Rows of a plane of P^3, with the entry at (1, 2) replaced when given."""
    rows = [[[int(i == j), 1] for j in range(4)] for i in range(3)]
    if entry is not None:
        rows[1][2] = entry
    return rows


def _plane_file(tmp_path, plane, metadata=None):
    data = {"ambient_dim": 3, "planes": [plane]}
    if metadata is not None:
        data["metadata"] = metadata
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return path


def _disjoint_planes_file(tmp_path, metadata=None):
    """Two disjoint coordinate planes of P^5."""
    def coordinate_plane(first):
        return [[[int(i == j), 1] for i in range(6)] for j in range(first, first + 3)]

    data = {"ambient_dim": 5, "planes": [coordinate_plane(0), coordinate_plane(3)]}
    if metadata is not None:
        data["metadata"] = metadata
    path = tmp_path / "disjoint.json"
    path.write_text(json.dumps(data))
    return path


def _point_meet_file(tmp_path):
    """Two planes of P^4 meeting in a point: not Zappatic."""
    def coordinate_plane(first):
        return [[[int(i == j), 1] for i in range(5)] for j in range(first, first + 3)]

    path = tmp_path / "point_meet.json"
    data = {"ambient_dim": 4, "planes": [coordinate_plane(0), coordinate_plane(2)]}
    path.write_text(json.dumps(data))
    return path


class TestMalformedArrangementFiles:
    """Every reading command exits 2 with a message, never a traceback."""

    def _check_exit_2(self, path, capsys, message=None):
        dot = str(path.parent / "g.dot")
        for cmd in (["classify"], ["invariants", "--smooth"], ["graph", "--dot", dot]):
            code, _out, err = run_cli([cmd[0], str(path), *cmd[1:]], capsys)
            assert code == 2, cmd
            assert err.startswith("error:"), cmd
            assert "Traceback" not in err, cmd
            assert message is None or err == f"error: {message}\n", cmd

    # int() reads all but "abc", but the file format has plain decimal strings only
    @pytest.mark.parametrize("entry", ["abc", "1_0", " 0 ", "+1", "\u0663"])
    def test_entry_not_a_decimal_integer(self, tmp_path, capsys, entry):
        self._check_exit_2(_plane_file(tmp_path, _rows([entry, 1])), capsys)

    def test_digit_string_over_int_limit(self, tmp_path, capsys):
        huge = "1" + "0" * 4400
        self._check_exit_2(_plane_file(tmp_path, _rows([huge, 1])), capsys)

    def test_plane_with_proportional_rows(self, tmp_path, capsys):
        rows = _rows()
        rows[1] = [[2 * x, d] for x, d in rows[0]]
        path = _plane_file(tmp_path, rows)
        self._check_exit_2(path, capsys, "a component plane must have dimension 2")

    def test_plane_not_a_list_of_rows(self, tmp_path, capsys):
        self._check_exit_2(_plane_file(tmp_path, 5), capsys)

    def test_metadata_not_an_object(self, tmp_path, capsys):
        self._check_exit_2(_plane_file(tmp_path, _rows(), metadata=5), capsys)

    def test_family_not_a_string(self, tmp_path, capsys):
        self._check_exit_2(_plane_file(tmp_path, _rows(), metadata={"family": ["X"]}), capsys)

    def test_bytes_that_are_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + '{"ambient_dim": 3}'.encode("utf-16-le"))
        self._check_exit_2(path, capsys)

    def test_integer_literal_over_int_limit(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"ambient_dim": ' + "9" * 5000 + ', "planes": []}')
        self._check_exit_2(path, capsys)

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        self._check_exit_2(path, capsys)

    def test_valid_one_plane_file_still_reads(self, tmp_path):
        arr, meta = serialize.read_arrangement(_plane_file(tmp_path, _rows()))
        assert len(arr) == 1 and meta == {}


FAMILIES = ["chain", "cycle", "X", "Y", "Z"]
NUMERATORS = [0, 0, 1, 1, -1, 2, 3]
DENOMINATORS = [1, 1, 1, 2]
ODD_NUMERATORS = NUMERATORS + [True, False, 0.5, 1.0, "7", "-2", "", 2**70,
                               "1_0", " 0 ", "+1", "\u0663"]
ODD_DENOMINATORS = DENOMINATORS + [0, -1, -3, True, 2.0, "4", 2**70]

small_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def arrangement_json(draw):
    """Arrangement-shaped JSON, well formed or with odd entries, denominators,
    row lengths or ambient dimension, and metadata naming any family, or any
    small JSON value; a file with no oddity reaches the classification."""
    odd = draw(st.sampled_from(["", "", "entries", "rows", "ambient_dim", "file"]))
    if odd == "file":
        return draw(small_json)
    n = draw(small_json if odd == "ambient_dim" else st.integers(3, 5))
    width = n + 1 if type(n) is int and n >= 0 else 3
    nums, dens = (ODD_NUMERATORS, ODD_DENOMINATORS) if odd == "entries" else (NUMERATORS, DENOMINATORS)
    entry = st.tuples(st.sampled_from(nums), st.sampled_from(dens)).map(list)
    if odd == "rows":
        plane = st.lists(st.lists(entry | small_json, max_size=7), min_size=2, max_size=4)
    else:
        plane = st.lists(st.lists(entry, min_size=width, max_size=width), min_size=3, max_size=3)
    data = {"ambient_dim": n, "planes": draw(st.lists(plane, max_size=5))}
    family = st.sampled_from(FAMILIES) | st.integers() | st.lists(st.text(max_size=1), max_size=2)
    metadata = draw(st.none() | st.fixed_dictionaries({"family": family}) | small_json)
    if metadata is not None:
        data["metadata"] = metadata
    return data


class TestFuzzedArrangementFiles:
    """Reading commands on generated files end in a documented exit code."""

    @settings(max_examples=150)
    @given(arrangement_json())
    def test_exit_codes(self, tmp_path_factory, data):
        work = tmp_path_factory.mktemp("fuzz")
        path = work / "a.json"
        path.write_text(json.dumps(data))
        for argv in (["classify", str(path)], ["invariants", str(path), "--smooth"],
                     ["graph", str(path), "--dot", str(work / "g.dot")]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3, 4), argv


class TestInvariantsCommand:
    def test_x_10_3(self, tmp_path, capsys):
        run_cli(
            ["construct", "--family", "X", "--d", "10", "--g", "3", "--seed", "2",
             "--out", str(tmp_path / "x.json")],
            capsys,
        )
        code, out, _ = run_cli(
            ["invariants", str(tmp_path / "x.json"), "--smooth"], capsys
        )
        assert code == 0
        assert "g=3 chi=-2 p_omega=0 K2=[-16,-12]" in out
        assert "smooth: g=3 p_g=0 chi=-2 K2=[-16,-12]" in out

    def test_family_that_does_not_fit_the_planes(self, tmp_path, capsys):
        # two disjoint planes of P^5 are no degenerate scroll of family X
        path = _disjoint_planes_file(tmp_path, metadata={"family": "X"})
        code, out, err = run_cli(["invariants", str(path), "--smooth"], capsys)
        assert code == 2
        assert out == ""  # checked before anything is printed
        assert err.startswith("error:")
        assert "metadata family 'X' does not fit the planes" in err
        assert "Traceback" not in err

    def test_disjoint_planes_genus_minus_one(self, tmp_path, capsys):
        # the hyperplane section is two skew lines: p_a = 1 - 2 = -1,
        # chi(O) = 1 + 1 and K^2 = 9 + 9
        code, out, _ = run_cli(["invariants", str(_disjoint_planes_file(tmp_path))], capsys)
        assert code == 0
        assert out.splitlines()[0] == "v=2 e=0 g=-1 chi=2 p_omega=0 K2=[18,18] k=[0,0]"

    def test_chain5(self, tmp_path, capsys):
        run_cli(
            ["construct", "--family", "chain", "--d", "5",
             "--out", str(tmp_path / "c.json")],
            capsys,
        )
        code, out, _ = run_cli(["invariants", str(tmp_path / "c.json")], capsys)
        assert code == 0
        assert "g=0 chi=1" in out and "K2=[8,8]" in out

    def test_abstract_torus(self, capsys):
        code, out, _ = run_cli(["invariants", "--abstract", "torus", "2", "2"], capsys)
        assert code == 0
        assert "chi=0" in out and "h2=1" in out
        assert "homology=(1,2,1)" in out

    @pytest.mark.parametrize("n, m, expected", [
        (3, 5, "v=30 e=45 f=15 chi=0 h2=1 homology=(1,2,1)\n"
               "g=16 p_omega=1 K2=[0,0]\n"),
        (20, 20, "v=800 e=1200 f=400 chi=0 h2=1 homology=(1,2,1)\n"
                 "g=401 p_omega=1 K2=[0,0]\n"),
        (30, 30, "v=1800 e=2700 f=900 chi=0 h2=1 homology=(1,2,1)\n"
                 "g=901 p_omega=1 K2=[0,0]\n"),
        (60, 60, "v=7200 e=10800 f=3600 chi=0 h2=1 homology=(1,2,1)\n"
                 "g=3601 p_omega=1 K2=[0,0]\n"),
    ], ids=["3x5", "20x20", "30x30", "60x60"])
    def test_abstract_torus_pinned(self, n, m, expected, capsys):
        code, out, _ = run_cli(["invariants", "--abstract", "torus", str(n), str(m)], capsys)
        assert code == 0
        assert out == expected

    def test_abstract_torus_non_integer_size_exit_2(self, capsys):
        code, _out, err = run_cli(["invariants", "--abstract", "torus", "x", "3"], capsys)
        assert code == 2
        assert err.startswith("error:")


class TestGraphCommand:
    def test_dot_export(self, tmp_path, capsys):
        run_cli(
            ["construct", "--family", "cycle", "--d", "5",
             "--out", str(tmp_path / "c.json")],
            capsys,
        )
        code, _out, _ = run_cli(
            ["graph", str(tmp_path / "c.json"), "--dot", str(tmp_path / "c.dot")],
            capsys,
        )
        assert code == 0
        dot = (tmp_path / "c.dot").read_text()
        assert dot.startswith("graph zappatic {")
        assert 'v0 -- v1 [label="C_{0,1}"];' in dot
        assert "style=dashed" in dot  # open faces of the R_3 points


class TestSmallCommands:
    def test_hilbert(self, capsys):
        code, out, _ = run_cli(["hilbert", "--d", "5", "--g", "0"], capsys)
        assert code == 0 and out.strip() == "42"

    def test_hilbert_range_exit2(self, capsys):
        code, _, err = run_cli(["hilbert", "--d", "7", "--g", "2"], capsys)
        assert code == 2 and "2g+4" in err

    def test_feasible_messages(self, capsys):
        code, out, _ = run_cli(["feasible", "--a", "2", "--b", "6"], capsys)
        assert code == 0
        assert out.strip() == "infeasible: j_a range empty (a+b-2 > 2a+1)"
        code, out, _ = run_cli(["feasible", "--a", "2", "--b", "5"], capsys)
        assert code == 0 and out.startswith("feasible: j = (")

    def test_feasible_large_type_answers_at_once(self, capsys):
        # b - a = 3: the witness starts at 3 and takes a-1 = 39 steps of 2
        code, out, _ = run_cli(["feasible", "--a", "40", "--b", "43"], capsys)
        assert code == 0
        witness = ", ".join(str(j) for j in range(3, 82, 2))
        assert out.strip() == f"feasible: j = ({witness})"
        # b - a = 4 is one step of 2 short; a search over placements costs 2^40
        code, out, _ = run_cli(["feasible", "--a", "40", "--b", "44"], capsys)
        assert code == 0
        assert out.strip() == "infeasible: j_a range empty (a+b-2 > 2a+1)"

    def test_degenerate_ledger(self, capsys):
        code, out, _ = run_cli(["degenerate", "--d", "5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# total degree: 5"
        assert lines[-1] == "P(1) P(1) P(1) P(1) P(1)"

    def test_quadrics_negative_genus_exit_2(self, capsys):
        code, out, err = run_cli(["quadrics", "--d", "3", "--g", "-1"], capsys)
        assert code == 2
        assert out == "" and "g >= 0" in err

    def test_quadrics_oracle(self, capsys):
        code, out, _ = run_cli(["quadrics", "--d", "3", "--g", "0", "--oracle"], capsys)
        assert code == 0
        assert "formula 3 = oracle 3" in out
        assert "formula 2 = oracle 2" in out

    def test_quadrics_oracle_d12_pinned(self, capsys):
        # the 55 x 66 kernel input of the analyze workload's largest oracle
        code, out, _ = run_cli(["quadrics", "--d", "12", "--g", "0", "--oracle"], capsys)
        assert code == 0
        assert out == (
            "through_curve=66 with_codim3=11\n"
            "formula 66 = oracle 66\n"
            "with codim-3 subspace: formula 11 = oracle 11\n"
        )


def _broken_chain(monkeypatch, _tmp_path):
    def raise_internal(_d):
        raise InternalCheckError("chain profile check failed")

    monkeypatch.setattr(cli, "chain_planes", raise_internal)


@pytest.mark.parametrize(
    "argv,setup,code",
    [
        pytest.param(["classify", "{tmp}/missing.json"], None, 2, id="classify-missing-file"),
        pytest.param(["graph", "{tmp}/missing.json", "--dot", "{tmp}/g.dot"], None, 2,
                     id="graph-missing-file"),
        pytest.param(["construct", "--family", "chain", "--d", "5",
                      "--out", "{tmp}/missing/c.json"], None, 2, id="construct-out-missing-dir"),
        pytest.param(["construct", "--family", "chain", "--d", "5", "--g", "1",
                      "--out", "{tmp}/c.json"], None, 2, id="chain-with-g"),
        pytest.param(["construct", "--family", "X", "--d", "8", "--out", "{tmp}/x.json"],
                     None, 2, id="x-without-g"),
        pytest.param(["invariants", "--abstract", "foo"], None, 2, id="abstract-unknown"),
        pytest.param(["invariants", "--abstract", "torus", "3"], None, 2, id="torus-one-size"),
        pytest.param(["invariants", "{tmp}/missing.json", "--abstract", "torus", "3", "5"], None, 2,
                     id="abstract-with-file"),
        pytest.param(["invariants", "--abstract", "torus", "3", "5", "--smooth"], None, 2,
                     id="abstract-with-smooth"),
        # classify lists the violations; the commands that need a Zappatic
        # arrangement refuse it
        pytest.param(["invariants", "{tmp}/point_meet.json"],
                     lambda _, tmp: _point_meet_file(tmp), 2, id="invariants-not-zappatic"),
        pytest.param(["invariants", "{tmp}/point_meet.json", "--smooth"],
                     lambda _, tmp: _point_meet_file(tmp), 2, id="invariants-smooth-not-zappatic"),
        # checked before the counts are printed
        pytest.param(["quadrics", "--d", "5", "--g", "1", "--oracle"], None, 2,
                     id="oracle-with-positive-genus"),
        pytest.param(["construct", "--family", "chain", "--d", "5", "--out", "{tmp}/c.json"],
                     _broken_chain, 4, id="internal-check"),
    ],
)
def test_error_exits(tmp_path, capsys, monkeypatch, argv, setup, code):
    """Each error arm of main exits with its code, prints nothing to stdout
    and one message, with no traceback, to stderr."""
    if setup is not None:
        setup(monkeypatch, tmp_path)
    got, out, err = run_cli([a.format(tmp=tmp_path) for a in argv], capsys)
    assert got == code
    assert out == ""
    assert err.startswith("internal error:" if code == 4 else "error:")
    assert "Traceback" not in err


def _oracle_inputs(d):
    """The samples and the codim-3 subspace that the quadric oracle draws:
    the row span of [I | R], R drawn row by row."""
    rng = random.Random(0)
    samples = [ProjPoint([t**k for k in range(d + 1)]) for t in range(-(d + 1), d + 1)]
    rows = [[0] * (d - 2) + [rng.randint(-9, 9) for _ in range(3)] for _ in range(d - 2)]
    for i, row in enumerate(rows):
        row[i] = 1
    sigma = Subspace(d, rows)
    assert sigma.dim == d - 3 and sigma.basis == tuple(map(tuple, rows))
    return samples, sigma


@pytest.mark.parametrize("d", range(2, 13))
def test_quadric_oracle_rank_count_is_the_kernel_basis_size(d):
    samples, sigma = _oracle_inputs(d)
    assert _run_quadric_oracle(d) == (
        len(quadrics_through(samples, [], d)[1]),
        len(quadrics_through(samples, [sigma], d)[1]),
    )


@pytest.mark.parametrize("d", [*range(2, 17), 20, 24])  # 20, 24: big-integer shapes
def test_quadric_oracle_agrees_with_the_formula(d, capsys):
    code, out, _ = run_cli(["quadrics", "--d", str(d), "--g", "0", "--oracle"], capsys)
    through, codim3 = (d + 2) * (d + 1) // 2 - (2 * d + 1), d - 1
    assert code == 0
    assert out == (
        f"through_curve={through} with_codim3={codim3}\n"
        f"formula {through} = oracle {through}\n"
        f"with codim-3 subspace: formula {codim3} = oracle {codim3}\n"
    )


class TestParserBuiltOnce:
    ARGVS = (
        ["hilbert", "--d", "6", "--g", "0"],
        ["hilbert", "--d", "six", "--g", "0"],  # bad value
        ["hilbert", "--d", "6", "--g", "0"],
        ["feasible", "--a", "2"],  # missing option
        ["invariants", "--abstract", "torus", "2", "3"],
        ["invariants"],  # --abstract from the last call must not linger
        ["nosuchcommand"],
        ["quadrics", "--d", "3", "--g", "0", "--oracle"],
        ["--help"],
        ["degenerate", "--d", "4"],
    )

    def test_cached(self):
        assert build_parser() is build_parser()

    def test_calls_in_a_row_match_fresh_parsers(self, capsys):
        fresh = []
        for argv in self.ARGVS:
            build_parser.cache_clear()
            fresh.append(run_cli(argv, capsys))
        reused = [run_cli(argv, capsys) for argv in self.ARGVS]
        assert reused == fresh
        assert [code for code, _, _ in fresh] == [0, 2, 0, 2, 0, 2, 2, 0, 0, 0]


class TestDeterminismAndSeeds:
    def test_seed_comes_from_argv_alone(self, tmp_path, capsys, monkeypatch):
        out_path = tmp_path / "x.json"
        argv = ["construct", "--family", "X", "--d", "8", "--g", "2", "--out", str(out_path)]
        _, out, _ = run_cli(argv, capsys)
        plain = (out, out_path.read_bytes())
        monkeypatch.setenv("ZAPPATIC_SEED", "5")
        _, out, _ = run_cli(argv, capsys)
        assert (out, out_path.read_bytes()) == plain  # the environment changes nothing
        assert json_block(out)["seed"] == 0
        _, out, _ = run_cli(argv + ["--seed", "9"], capsys)
        assert json_block(out)["seed"] == 9

    def test_seed_not_int_exit_2(self, tmp_path, capsys):
        out_path = tmp_path / "x.json"
        code, out, err = run_cli(
            ["construct", "--family", "X", "--d", "8", "--g", "2", "--seed", "abc",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 2
        assert out == "" and "invalid int value: 'abc'" in err
        assert not out_path.exists()

    def test_byte_identical_across_processes(self, tmp_path, cli_env):
        cmd = [
            sys.executable, "-m", "zappatic.cli", "construct", "--family", "X",
            "--d", "10", "--g", "3", "--seed", "42",
        ]
        r1 = subprocess.run(
            cmd + ["--out", str(tmp_path / "r1.json")], capture_output=True, env=cli_env
        )
        r2 = subprocess.run(
            cmd + ["--out", str(tmp_path / "r2.json")], capture_output=True, env=cli_env
        )
        assert r1.returncode == r2.returncode == 0
        out1 = r1.stdout.replace(b"r1.json", b"out.json")
        out2 = r2.stdout.replace(b"r2.json", b"out.json")
        assert out1 == out2
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
