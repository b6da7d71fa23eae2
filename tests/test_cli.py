import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import qwalk as q
from qwalk import cli
from qwalk.cli import AnalysisConfig, main, run_scan
from qwalk.graphs import MAX_VERTICES

from conftest import noncanonical_graph6

from test_acceptance import REPORT_GRAPHS

CATALOG = Path(__file__).resolve().parents[1] / "perfbench" / "atlas1000.g6"


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def p3_file(tmp_path):
    f = tmp_path / "p3.g6"
    f.write_text(q.encode_graph6(q.path(3)) + "\n")
    return str(f)


class TestConfig:
    def test_defaults(self):
        cfg = AnalysisConfig()
        assert cfg.t_max == 50 and cfg.exact_cap == 64 and cfg.brute_force_cap == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            AnalysisConfig(threshold=1.0)
        with pytest.raises(ValueError):
            AnalysisConfig(t_max=-1)

    @pytest.mark.parametrize("field,value", [
        ("exact_cap", 0), ("brute_force_cap", -1),
        ("grouping_tolerance", 0.0), ("grouping_tolerance", -1.0),
        ("grouping_tolerance", math.nan), ("grouping_tolerance", math.inf),
        ("support_tolerance", math.nan), ("support_tolerance", math.inf),
        ("t_max", math.nan), ("t_max", math.inf),
    ])
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            AnalysisConfig(**{field: value})

    def test_grouping_tolerance_auto_or_positive(self):
        assert AnalysisConfig().grouping_tolerance is None
        assert AnalysisConfig(grouping_tolerance=1e-6).grouping_tolerance == 1e-6

    def test_zero_brute_force_cap_accepted(self):
        assert AnalysisConfig(brute_force_cap=0).brute_force_cap == 0

    @pytest.mark.parametrize("flags", [
        ["--tol-support", "0"], ["--exact-cap", "-1"], ["--exact-cap", "0"], ["--bf-cap", "-1"],
        ["--tol-group", "0"], ["--tol-group", "-1"], ["--tol-group", "nan"],
        ["--tol-support", "nan"], ["--t-max", "nan"], ["--t-max", "inf"],
    ])
    @pytest.mark.parametrize("command", ["analyze", "pair", "scan"])
    def test_out_of_range_flags_exit_2(self, tmp_path, capsys, command, flags):
        # K2 has PST; --tol-support nan used to empty every support, and scan
        # wrote an error line per graph and exited 0 for --tol-group 0 and
        # --t-max inf
        f = tmp_path / "k2.g6"
        f.write_text(q.encode_graph6(q.complete(2)) + "\n")
        argv = [command, str(f)] + (["0", "1"] if command == "pair" else []) + flags
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and "must be" in err


class TestAnalyze:
    def test_p4_report(self, tmp_path, capsys):
        f = tmp_path / "p4.g6"
        f.write_text(q.encode_graph6(q.path(4)))
        code, out, _ = run_cli(["analyze", str(f)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == cli.SCHEMA_VERSION
        assert doc["gap"]["sigma"] == pytest.approx(1.0)
        assert all(v["controllable"] for v in doc["vertices"])
        assert doc["vertices"][0]["support_class"]["kind"] == "Neither"

    def test_k1_trivial(self, tmp_path, capsys):
        f = tmp_path / "k1.g6"
        f.write_text("@")
        code, out, _ = run_cli(["analyze", str(f)], capsys)
        doc = json.loads(out)
        assert code == 0 and doc["n"] == 1 and "gap" not in doc

    def test_hypercube_integer_spectrum(self, tmp_path, capsys):
        f = tmp_path / "q3.g6"
        f.write_text(q.encode_graph6(q.hypercube(3)))
        code, out, _ = run_cli(["analyze", str(f)], capsys)
        doc = json.loads(out)
        assert doc["rho_squared_integer"]
        assert doc["vertices"][0]["support_class"]["kind"] == "Integer"
        assert doc["vertices"][0]["period_candidate"] == pytest.approx(6.2831853, abs=1e-5)

    def test_json_edge_list_input(self, tmp_path, capsys):
        f = tmp_path / "g.json"
        f.write_text('{"n": 2, "edges": [[0, 1]]}')
        code, out, _ = run_cli(["analyze", str(f)], capsys)
        assert code == 0 and json.loads(out)["graph6"] == "A_"

    @pytest.mark.parametrize("text", [
        '{"edges": []}',
        '{"n": 3, "edges": [[0, "a"]]}',
        '{"n": 3, "edges": 5}',
        '{"n": 3, "edges": [[0, 1.5]]}',
        '{"n": 3, "edges": [[true, 1]]}',
        '{"n": 2.5}',
        '{"n": true}',
        '{"n": "3"}',
    ])
    def test_bad_json_edge_list_exit_2(self, tmp_path, capsys, text):
        f = tmp_path / "g.json"
        f.write_text(text)
        code, out, err = run_cli(["analyze", str(f)], capsys)
        assert code == 2 and not out and err.startswith("error: JSON")

    def test_too_many_vertices_exit_2_before_allocating(self, tmp_path, capsys):
        # 28 bytes that ask for an n x n matrix of 3.64 TiB
        n = MAX_VERTICES + 1
        f = tmp_path / "g.json"
        f.write_text(f'{{"n": {n}, "edges": []}}')
        code, out, err = run_cli(["analyze", str(f)], capsys)
        assert (code, out, err) == (2, "", f"error: graph too large: {n} > {MAX_VERTICES}\n")

    def test_negative_vertex_count_exit_2(self, tmp_path, capsys):
        f = tmp_path / "g.json"
        f.write_text('{"n": -1, "edges": []}')
        code, out, err = run_cli(["analyze", str(f)], capsys)
        assert (code, out, err) == (2, "", "error: negative vertex count: -1\n")

    def test_json_out_flag(self, tmp_path, capsys):
        f = tmp_path / "p3.g6"
        f.write_text("Bg")
        target = tmp_path / "out.json"
        code, _, _ = run_cli(["analyze", str(f), "--json", str(target)], capsys)
        assert code == 0
        assert json.loads(target.read_text())["n"] == 3
        # the file holds the bytes the same command prints on stdout
        for argv in (["analyze", str(f)], ["pair", str(f), "0", "2"]):
            code, _, _ = run_cli([*argv, "--json", str(target)], capsys)
            assert code == 0
            assert (0, target.read_text(), "") == run_cli(argv, capsys)

    def test_parse_error_exit_2(self, tmp_path, capsys):
        f = tmp_path / "bad.g6"
        f.write_text("D")  # truncated
        code, _, err = run_cli(["analyze", str(f)], capsys)
        assert code == 2 and "truncated" in err

    def test_disconnected_warns(self, tmp_path, capsys):
        f = tmp_path / "g.json"
        f.write_text('{"n": 4, "edges": [[0, 1], [2, 3]]}')
        code, out, _ = run_cli(["analyze", str(f)], capsys)
        assert code == 0 and "warning" in json.loads(out)


class TestPair:
    def test_p3_ends(self, p3_file, capsys):
        code, out, _ = run_cli(["pair", p3_file, "0", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["all_pass"]
        assert doc["pst_found"]["tau"] == pytest.approx(2.221441469, abs=1e-6)
        assert doc["pst_found"]["kind"] == "numeric"
        assert doc["verification"]["passed"]

    def test_p4_ends_no_pst(self, tmp_path, capsys):
        f = tmp_path / "p4.g6"
        f.write_text(q.encode_graph6(q.path(4)))
        code, out, _ = run_cli(["pair", str(f), "0", "3"], capsys)
        doc = json.loads(out)
        assert code == 0  # pipeline ran; verdicts speak for themselves
        assert doc["pst_found"] is None
        assert doc["controllable"] == {"u": True, "v": True}
        assert not doc["verdicts"]["support_class_not_neither"]

    def test_t_max_bounds_time_not_memory(self, tmp_path, capsys):
        # the time grid is made block by block, so a --t-max of 1e15 (a
        # 226 PiB grid) searches only up to P2's transfer at pi/2, which
        # lies in the first block, and prints the default run's report
        f = tmp_path / "p2.g6"
        f.write_text("A_\n")
        default = run_cli(["pair", str(f), "0", "1"], capsys)
        assert run_cli(["pair", str(f), "0", "1", "--t-max", "1e15"], capsys) == default
        assert default[0] == 0
        assert json.loads(default[1])["pst_found"]["tau"] == pytest.approx(math.pi / 2)

    def test_petersen_singleton_diagnostic(self, tmp_path, capsys):
        f = tmp_path / "pet.g6"
        f.write_text(q.encode_graph6(q.petersen()))
        code, out, _ = run_cli(["pair", str(f), "0", "1"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert not doc["v_singleton_in_delta_u"]
        assert doc["pst_found"] is None

    def test_graph6_at_n60_is_not_json(self, tmp_path, capsys):
        # the graph6 size byte of a 60-vertex graph is chr(63 + 60) == "{"
        g6 = q.encode_graph6(q.path(60))
        assert g6.startswith("{")
        f = tmp_path / "p60.g6"
        f.write_text(g6 + "\n")
        assert cli.read_graph(str(f)) == q.path(60)
        code, out, err = run_cli(["pair", str(f), "0", "59"], capsys)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["graph6"] == g6 and doc["n"] == 60

    def test_malformed_json_is_not_accepted(self, tmp_path, capsys):
        f = tmp_path / "g.json"
        f.write_text('{"n": 2, "edges": [[0, 1]]')
        assert run_cli(["analyze", str(f)], capsys)[0] == 2

    def test_bad_vertices_exit_2(self, p3_file, capsys):
        assert run_cli(["pair", p3_file, "0", "9"], capsys)[0] == 2
        assert run_cli(["pair", p3_file, "1", "1"], capsys)[0] == 2

    @pytest.mark.parametrize("u,v", [(1, 1), (0, 3), (-1, 0)])
    def test_invalid_pair_has_one_message(self, p3_file, capsys, u, v):
        message = f"invalid vertex pair ({u}, {v}) for n=3"
        assert run_cli(["pair", p3_file, str(u), str(v)], capsys) == (2, "", f"error: {message}\n")
        data = q.GraphData(q.path(3))
        for view in (data.pair, data.report, data.cospectral):
            with pytest.raises(ValueError) as exc:
                view(u, v)
            assert str(exc.value) == message

    def test_above_exact_cap_words_the_cap_as_scan_does(self, tmp_path, capsys):
        f = tmp_path / "p70.g6"
        f.write_text(q.encode_graph6(q.path(70)))
        code, out, err = run_cli(["pair", str(f), "0", "69"], capsys)
        assert (code, out, err) == (2, "", "error: exact-arithmetic cap exceeded: 70 > 64\n")


class TestScan:
    def test_q3_catalog_finds_pst(self, tmp_path, capsys):
        f = tmp_path / "cat.g6"
        f.write_text(q.encode_graph6(q.hypercube(3)) + "\n")
        code, out, _ = run_cli(["scan", str(f)], capsys)
        assert code == 0
        doc = json.loads(out.splitlines()[0])
        hits = [p for p in doc["pairs"] if p.get("pst")]
        assert len(hits) == 4  # one per antipodal pair
        for h in hits:
            assert h["v"] == h["u"] ^ 7
            assert h["pst"]["tau"] == pytest.approx(1.5707963, abs=1e-5)

    def test_empty_file_exit_1(self, tmp_path, capsys):
        f = tmp_path / "empty.g6"
        f.write_text("")
        assert run_cli(["scan", str(f)], capsys)[0] == 1

    def test_bad_line_reported_inline(self, tmp_path, capsys):
        f = tmp_path / "cat.g6"
        f.write_text("A_\n\x7fbad\nBw\n")
        code, out, _ = run_cli(["scan", str(f)], capsys)
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 3
        assert "error" in lines[1]
        assert lines[0]["n"] == 2 and lines[2]["n"] == 3

    def test_graph_above_exact_cap_is_an_error_line(self, monkeypatch, capsys):
        # K2 has PST; above the cap scan must say so, as pair does, and not
        # print an empty pair list
        monkeypatch.setattr("sys.stdin", io.StringIO("A_\nA?\n@\n"))
        code, out, _ = run_cli(["scan", "-", "--exact-cap", "1"], capsys)
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert docs[0] == {"id": "A_", "error": "exact-arithmetic cap exceeded: 2 > 1",
                           "schema_version": cli.SCHEMA_VERSION}
        # a disconnected graph needs no exact arithmetic, nor does K1
        assert docs[1]["pairs"] == [] and not docs[1]["connected"]
        assert docs[2]["n"] == 1 and docs[2]["pairs"] == []
        monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
        assert run_cli(["pair", "-", "0", "1", "--exact-cap", "1"], capsys)[0] == 2

    def test_lines_carry_schema_version(self):
        buf = io.StringIO()
        run_scan(["Bw", "\x7fbad"], AnalysisConfig(), out=buf)
        docs = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [d["schema_version"] for d in docs] == [cli.SCHEMA_VERSION] * 2

    def test_pairs_failing_sign_condition_are_not_searched(self):
        # 4 and 5 are twins, both adjacent to exactly 2 and 3: cospectral, but
        # e_4 - e_5 is an eigenvector, so they are not strongly cospectral
        g = q.Graph.from_edges(6, [(0, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5)])
        doc = json.loads(cli._scan_chunk(([q.encode_graph6(g)], AnalysisConfig()))[0])
        pair = next(p for p in doc["pairs"] if (p["u"], p["v"]) == (4, 5))
        assert not pair["verdicts"]["sign_condition"] and "pst" not in pair
        assert all(v for k, v in pair["verdicts"].items() if k != "sign_condition")

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        graphs = [q.path(n) for n in range(2, 7)] + [q.hypercube(2), q.complete(4)]
        lines = [q.encode_graph6(g) for g in graphs]
        outs = []
        for jobs in (1, 2):
            buf = io.StringIO()
            n = run_scan(lines, AnalysisConfig(jobs=jobs), out=buf)
            assert n == len(lines)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_at_most_one_worker_per_line(self, monkeypatch, tmp_path, capsys):
        sizes = []

        class RecordingPool:
            """Records its size and maps in this process: starts nothing."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, items, chunksize=1):
                return map(func, items)

        monkeypatch.setattr(cli.multiprocessing, "Pool", RecordingPool)
        f = tmp_path / "cat.g6"
        f.write_text("A_\nBw\n")
        code, out, _ = run_cli(["scan", str(f), "--jobs", "10000"], capsys)
        assert code == 0 and len(out.splitlines()) == 2
        assert sizes == [2]
        # one line needs no pool at all, and neither does an empty input
        assert run_scan(["A_"], AnalysisConfig(jobs=8), out=io.StringIO()) == 1
        assert run_scan([], AnalysisConfig(jobs=8), out=io.StringIO()) == 0
        assert sizes == [2]

    def test_jobs_env_default(self, monkeypatch):
        monkeypatch.setenv("QWALK_JOBS", "3")
        args = cli.build_parser().parse_args(["scan", "x"])
        assert args.jobs == 3

    @pytest.mark.parametrize("value", ["abc", "", "2.5"])
    def test_bad_jobs_env_fails_scan_alone(self, monkeypatch, p3_file, capsys, value):
        monkeypatch.setenv("QWALK_JOBS", value)
        code, out, err = run_cli(["scan", p3_file], capsys)
        assert (code, out) == (2, "") and err == "error: QWALK_JOBS must be an integer\n"
        # --jobs overrides it, and the other commands never read it
        assert run_cli(["scan", p3_file, "--jobs", "1"], capsys)[0] == 0
        code, out, _ = run_cli(["analyze", p3_file], capsys)
        assert code == 0 and json.loads(out)["n"] == 3
        assert run_cli(["pair", p3_file, "0", "2"], capsys)[0] == 0

    def test_empty_graph_is_an_error_line(self, monkeypatch, capsys):
        # "?" is the graph6 of the graph with no vertex, which analyze and
        # pair reject too
        monkeypatch.setattr("sys.stdin", io.StringIO("?\nA_\n"))
        code, out, _ = run_cli(["scan", "-"], capsys)
        lines = out.splitlines()
        assert code == 0 and len(lines) == 2
        assert lines[0] == ('{"error":"graph must have at least one vertex","id":"?",'
                            f'"schema_version":{cli.SCHEMA_VERSION}}}')
        assert json.loads(lines[1])["n"] == 2
        monkeypatch.setattr("sys.stdin", io.StringIO("?\n"))
        assert run_cli(["analyze", "-"], capsys)[0] == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_chunk_matches_line_by_line(self, jobs):
        # blank lines, every kind of bad graph6, a connected graph above the
        # cap, a disconnected one above it, K1 and "?" among graphs of
        # several sizes: the stacked chunk writes what each line gives alone
        two_c4 = q.Graph.from_edges(8, [(i, (i + 1) % 4) for i in range(4)]
                                    + [(4 + i, 4 + (i + 1) % 4) for i in range(4)])
        lines = ["", q.encode_graph6(q.path(4)), "\x7fbad", "  ", q.encode_graph6(q.cycle(7)),
                 ">>graph6<<", q.encode_graph6(two_c4), "@", "~~???", "?",
                 q.encode_graph6(q.cycle(4)), "", "~?@", q.encode_graph6(q.hypercube(3)), "D",
                 "A_~~", q.encode_graph6(q.star(5))]
        config = AnalysisConfig(exact_cap=6, jobs=jobs)
        buf = io.StringIO()
        assert run_scan(lines, config, out=buf) == len([line for line in lines if line.strip()])
        alone = io.StringIO()
        for line in lines:
            run_scan([line], AnalysisConfig(exact_cap=6), out=alone)
        assert buf.getvalue() == alone.getvalue()
        docs = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [d.get("error", "") for d in docs] == [
            "", "character '\\x7f' outside graph6 alphabet (byte offset 0)",
            "exact-arithmetic cap exceeded: 7 > 6", "empty graph6 input (byte offset 0)", "", "",
            "8-byte length encoding (n > 258047) not supported (byte offset 1)",
            "graph must have at least one vertex", "",
            "truncated multi-byte length prefix (byte offset 3)",
            "exact-arithmetic cap exceeded: 8 > 6",
            "truncated bit vector: need 2 bytes, got 0 (byte offset 1)",
            "trailing data after bit vector (byte offset 2)", ""]
        assert not docs[4]["connected"]

    def test_chunks_close_at_256_lines_or_the_work_budget(self):
        # Σ n**3 of 256 catalog lines is far below SCAN_WORK = 2**22, while
        # 16 graphs of n = 64 (64**3 = 2**18 each) reach it; ceil(lines / jobs)
        # caps both
        catalog = CATALOG.read_text().split()[:300]
        rng = np.random.default_rng(64)
        cap = [q.encode_graph6(q.Graph(a + a.T)) for a in
               (np.triu((rng.random((64, 64)) < 0.45).astype(int), 1) for _ in range(40))]

        def sizes(lines, jobs):
            chunks = cli._scan_chunks(lines, jobs)
            assert [line for chunk in chunks for line in chunk] == lines
            return [len(chunk) for chunk in chunks]

        assert sizes(catalog, 1) == [256, 44]
        assert sizes(cap, 1) == sizes(cap, 2) == [16, 16, 8]
        assert sizes(catalog, 2) == [150, 150] and sizes(catalog, 7) == [43] * 6 + [42]
        assert sizes(cap, 4) == [10] * 4 and sizes(cap[:1], 1) == [1]
        assert sizes(catalog[:5] + cap[:16], 1) == [20, 1]  # small lines count too
        assert sizes([], 3) == [] and sizes(["", " ", "\x7fbad", "~~"], 1) == [4]

    def test_header_lines_chunk_and_scan_like_plain_ones(self):
        # a '>>graph6<<' line, which parse_graph6 accepts, used to be sized
        # n = 0, so 40 such P64 lines made one chunk, past SCAN_WORK; a line
        # with its size in the '~' form or with padding bits set scans with
        # the canonical id
        p64 = [q.encode_graph6(q.path(64))] * 40
        for lines in (p64, [">>graph6<<" + line for line in p64]):
            assert [len(chunk) for chunk in cli._scan_chunks(lines, 1)] == [16, 16, 8]
        plain = CATALOG.read_text().split()[:30] + [
            q.encode_graph6(g) for g in (q.path(64), q.hypercube(5), q.star(9), q.cycle(40))]
        variants = [[">>graph6<<" + line for line in plain],
                    [noncanonical_graph6(line, "tilde") for line in plain],
                    [noncanonical_graph6(line, "padding") for line in plain]]
        outputs = [io.StringIO()]
        assert run_scan(plain, AnalysisConfig(), out=outputs[0]) == len(plain)
        for lines in variants:
            for jobs in (1, 3):
                assert [len(c) for c in cli._scan_chunks(lines, jobs)] == \
                    [len(c) for c in cli._scan_chunks(plain, jobs)]
            outputs.append(io.StringIO())
            assert run_scan(lines, AnalysisConfig(), out=outputs[-1]) == len(lines)
            assert outputs[-1].getvalue() == outputs[0].getvalue()

    @pytest.mark.parametrize("lines,work", [(1, 2**22), (7, 2**22), (256, 200)],
                             ids=["1-line", "7-line", "work-200"])
    def test_chunk_bounds_do_not_change_bytes(self, monkeypatch, lines, work):
        # mixed vertex counts with a blank line, a malformed one, a
        # disconnected graph and K1: the bounds cut the chunks differently,
        # and every line is the same
        rng = np.random.default_rng(26)
        two_c4 = q.Graph.from_edges(8, [(i, (i + 1) % 4) for i in range(4)]
                                    + [(4 + i, 4 + (i + 1) % 4) for i in range(4)])
        graphs = [q.path(4), q.cycle(7), two_c4, q.hypercube(3), q.petersen(), q.star(9),
                  q.cartesian_product(q.path(5), q.path(6)), q.hypercube(5), q.complete(5)]
        graphs += [q.Graph(a + a.T) for a in
                   (np.triu((rng.random((n, n)) < 0.45).astype(int), 1) for n in (6, 24, 6, 40))]
        text = [q.encode_graph6(g) for g in graphs]
        text[3:3] = ["", "\x7fbad", "@"]
        default = io.StringIO()
        assert run_scan(text, AnalysisConfig(), out=default) == len(text) - 1
        monkeypatch.setattr(cli, "SCAN_CHUNK", lines)
        monkeypatch.setattr(cli, "SCAN_WORK", work)
        assert len(cli._scan_chunks(text, 1)) > 1
        patched = io.StringIO()
        assert run_scan(text, AnalysisConfig(), out=patched) == len(text) - 1
        assert patched.getvalue() == default.getvalue()


def _emitted(doc, capsys):
    cli._emit(doc, None)
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def report_docs():
    config = AnalysisConfig()
    docs = {}
    for name, g in REPORT_GRAPHS.items():
        pair = q.analysis.GraphData(g, config).pair(0, g.n - 1)
        docs[f"analyze {name}"] = cli.analyze_graph(g, config)
        docs[f"pair {name}"] = cli.pair_report_json(g, pair)
    return docs


class TestEmit:
    """``_emit`` prints exactly ``json.dumps(doc, indent=2, sort_keys=True)``."""

    @pytest.mark.parametrize("name", [f"{command} {name}" for name in REPORT_GRAPHS
                                      for command in ("analyze", "pair")])
    def test_reports_match_the_stdlib(self, report_docs, capsys, name):
        doc = report_docs[name]
        assert _emitted(doc, capsys) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_edge_values_match_the_stdlib(self, capsys):
        doc = {
            "floats": [math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1],
            "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": -0.0,
            "big": 2**70, "bigs": [2**70, -(2**70), 0],
            "mixed": [1, True], "scalars": [1, 2.5, "s"], "nothing": None,
            "bools": [True, False], "nones": [None, None],
            "empty_list": [], "empty_dict": {}, "tuple": (1, (2, 3)),
            "cells": [[1, 2], [], [3]], "empty_cells": [[], []], "bool_cells": [[1], [True]],
            "np_float": np.float64(0.5), "np_floats": [np.float64(1.5), np.float64(-2.0)],
            "strings": ['"quoted"', "back\\slash", "ctrl\x00\x1f\t\n\r", "héllo ✓ 𝄞",
                        "{inf}nan", "Bg{[", "]~?}"],
            "deep": [{"b": [1.5, math.nan], "a": {"z": [], "y": [[0]]}}, [[1.0], ["x"]]],
            "non_str_keys": {1: "one", 2: {"k": [1]}},
            "with \"quote\" é": {"c": 1, "a": [-1e300, 1e16]},
            "nested_empty": [[], {}, [[]]],
        }
        assert _emitted(doc, capsys) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("doc", [1, 2.5, math.nan, "s", None, True, [], {}, [[1]]])
    def test_top_level_values_match_the_stdlib(self, capsys, doc):
        assert _emitted(doc, capsys) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("doc", [{"a": [object()]}, {"a": {1: "x", "b": 2}}])
    def test_unserialisable_values_raise_as_the_stdlib_does(self, capsys, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._emit(doc, None)


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
    assert main(["scan", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 2


class TestSupportAgainstPsi:
    """Each support value is checked against psi_u, the minimal polynomial of
    e_u; the class, equal supports and the ratio condition are read from
    psi_u alone, so a user tolerance that leaves support values out does
    not change them."""

    @staticmethod
    def _argv(command, g, tmp_path, pair):
        f = tmp_path / "g.g6"
        f.write_text(q.encode_graph6(g) + "\n")
        return [command, str(f)] + ([str(w) for w in pair] if command == "pair" else [])

    # (graph, --tol-support, numeric support size, pair (0, 1) passes every
    # verdict) by test id suffix
    _COARSE = {
        # on K4 at 0.3 only -1 is in each numeric support (E_3 has diagonal
        # 1/4), against deg psi_u = 2; the class is that of psi_u = (t - 3)
        # (t + 1), which is Integer
        "": (q.complete(4), "0.3", 1, False),
        # on K2 at 10 every support is empty; psi_u = (t - 1)(t + 1) is
        # Integer too
        "-empty": (q.complete(2), "10", 0, True),
    }

    @pytest.mark.parametrize("command,case", [
        pytest.param(command, case, id=command + suffix)
        for suffix, case in _COARSE.items() for command in ("analyze", "pair", "scan")])
    def test_coarse_support_tolerance_still_integer(self, tmp_path, capsys, command, case):
        g, tol, size, all_pass = case
        argv = self._argv(command, g, tmp_path, (0, 1)) + ["--tol-support", tol]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        if command == "analyze":
            vertices = json.loads(out)["vertices"]
            assert [len(v["support"]) for v in vertices] == [size] * g.n
            assert {v["support_class"]["kind"] for v in vertices} == {"Integer"}
        elif command == "pair":
            doc = json.loads(out)
            assert doc["support_class"] == {"kind": "Integer"}
            assert doc["all_pass"] == all(doc["verdicts"].values()) == all_pass
        else:
            doc = json.loads(out)
            assert "error" not in doc and len(doc["pairs"]) == g.n * (g.n - 1) // 2
            assert all(p["verdicts"]["support_class_not_neither"] for p in doc["pairs"])

    def test_partial_support_is_classified_by_psi(self, tmp_path, capsys):
        # at 0.3 the numeric supports of vertices 1 and 2 of CN hold only
        # the eigenvalue -1; the class is that of psi_1 = psi_2 = (t + 1)
        # (t^3 - t^2 - 3t + 1), Neither, and every verdict is the default's
        f = tmp_path / "cn.g6"
        f.write_text("CN\n")
        docs = [json.loads(run_cli(["pair", str(f), "1", "2"] + flags, capsys)[1])
                for flags in ([], ["--tol-support", "0.3"])]
        assert docs[1]["support_class"] == {"kind": "Neither"}
        assert docs[0]["verdicts"] == docs[1]["verdicts"]

    def test_scan_verdicts_from_psi_do_not_depend_on_support_tolerance(self):
        # the sign condition, which reads the support mask, may differ
        lines = CATALOG.read_text().split()
        runs = []
        for tol in (AnalysisConfig().support_tolerance, 0.3):
            out = io.StringIO()
            assert run_scan(lines, AnalysisConfig(support_tolerance=tol), out=out) == len(lines)
            runs.append([json.loads(row) for row in out.getvalue().splitlines()])
        names = ("support_class_not_neither", "equal_supports", "ratio_condition")
        pairs = 0
        for default, coarse in zip(*runs):
            assert default["id"] == coarse["id"] and "error" not in default and "error" not in coarse
            assert [(p["u"], p["v"]) for p in default["pairs"]] == \
                [(p["u"], p["v"]) for p in coarse["pairs"]]
            for p, r in zip(default["pairs"], coarse["pairs"]):
                assert [p["verdicts"][k] for k in names] == [r["verdicts"][k] for k in names]
                pairs += 1
        assert pairs == 2734

    @pytest.mark.parametrize("command", ["analyze", "pair", "scan"])
    def test_value_outside_psi_is_an_error(self, monkeypatch, tmp_path, capsys, command):
        # every eigenvalue put in every numeric support: 0 is an eigenvalue
        # of P5 but not a root of psi_1 = (t^2 - 1)(t^2 - 3), and 1 and 3
        # are a cospectral pair
        monkeypatch.setattr(q.analysis, "supports_stack", lambda sds, tol: [
            (tuple(range(sd.num_distinct)),) * sd.n for sd in sds])
        code, out, err = run_cli(self._argv(command, q.path(5), tmp_path, (1, 3)), capsys)
        if command == "scan":
            # the pair (0, 4) passes, as psi_0 = phi; (1, 3) fails at 0, the
            # third eigenvalue, named with vertex 1 and the tolerance
            zero = float(q.decompose(q.path(5)).eigenvalues[2])
            assert code == 0 and abs(zero) < 1e-12
            assert out == json.dumps({
                "error": f"vertex 1, support tolerance 1e-10: value {zero} is not a root "
                         "of the polynomial",
                "id": q.encode_graph6(q.path(5)), "schema_version": cli.SCHEMA_VERSION},
                separators=(",", ":"), sort_keys=True) + "\n"
        else:
            assert code == 2 and out == "" and "is not a root of the polynomial" in err

    def test_guard_failure_leaves_the_rest_of_its_stack_whole(self, monkeypatch):
        # three graphs of n = 5 in one chunk, stacked in one verdict pass;
        # every eigenvalue put in every support of the middle one, P5, so
        # that its pair (1, 3) fails the root guard, and the lines of C5
        # and K1,4 on either side are those of a scan without it
        lines = [q.encode_graph6(g) for g in (q.cycle(5), q.path(5), q.star(4))]
        plain = io.StringIO()
        run_scan(lines, AnalysisConfig(), out=plain)
        real = q.analysis.supports_stack
        monkeypatch.setattr(q.analysis, "supports_stack", lambda sds, tol: [
            (tuple(range(sd.num_distinct)),) * sd.n if sd.num_distinct == 5 else sups
            for sd, sups in zip(sds, real(sds, tol))])
        passes = []
        real_pass = q.analysis._reports_stack
        monkeypatch.setattr(q.analysis, "_reports_stack", lambda datas, pairs: (
            passes.append([d.g for d in datas]) or real_pass(datas, pairs)))
        patched = io.StringIO()
        assert run_scan(lines, AnalysisConfig(), out=patched) == 3
        assert passes == [[q.cycle(5), q.path(5), q.star(4)]]
        before, after = plain.getvalue().splitlines(), patched.getvalue().splitlines()
        assert after[::2] == before[::2] and "error" not in before[1]
        assert json.loads(after[1])["error"].startswith("vertex 1, support tolerance")

    @pytest.mark.parametrize("command", ["scan", "pair"])
    def test_guard_failure_with_unequal_supports(self, monkeypatch, tmp_path, capsys, command):
        # in P5, vertex 1 given every eigenvalue and vertex 3 only the first
        # and 0, the third: the pair (1, 3) has unequal supports whose
        # common support holds 0, which is not a root of psi_1, so both
        # u's class and the common support's class fail the root guard
        def patched(sds, tol):
            out = []
            for sd, sups in zip(sds, real(sds, tol)):
                if sd.num_distinct == 5:
                    sups = list(sups)
                    sups[1], sups[3] = tuple(range(5)), (0, 2)
                out.append(tuple(sups))
            return out

        real = q.analysis.supports_stack
        zero = float(q.decompose(q.path(5)).eigenvalues[2])
        error = f"vertex 1, support tolerance 1e-10: value {zero} is not a root of the polynomial"
        if command == "pair":
            monkeypatch.setattr(q.analysis, "supports_stack", patched)
            code, out, err = run_cli(self._argv(command, q.path(5), tmp_path, (1, 3)), capsys)
            assert code == 2 and out == "" and err.rstrip().endswith(error)
            return
        lines = [q.encode_graph6(g) for g in (q.cycle(5), q.path(5), q.star(4))]
        plain = io.StringIO()
        run_scan(lines, AnalysisConfig(), out=plain)
        monkeypatch.setattr(q.analysis, "supports_stack", patched)
        out = io.StringIO()
        assert run_scan(lines, AnalysisConfig(), out=out) == 3
        before, after = plain.getvalue().splitlines(), out.getvalue().splitlines()
        assert after[::2] == before[::2] and abs(zero) < 1e-12
        assert json.loads(after[1]) == {"error": error, "id": lines[1],
                                        "schema_version": cli.SCHEMA_VERSION}

    @pytest.mark.parametrize("command", ["analyze", "pair"])
    def test_guard_error_names_vertex_and_tolerance(self, tmp_path, capsys, command):
        # at --tol-support 1e-300 rounding noise puts 0, an eigenvalue of P3
        # outside the middle vertex's support, in that vertex's support
        argv = self._argv(command, q.path(3), tmp_path, (1, 0)) + ["--tol-support", "1e-300"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "vertex 1" in err and "1e-300" in err
        assert err.rstrip().endswith("is not a root of the polynomial")
