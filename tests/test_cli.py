"""Tests for the command-line surface, driven through cli.main return codes."""
import csv
import json
import random
import runpy
import sys

import pytest

from burstcodes.cli import FAILURE, USAGE_ERROR, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBall:
    def test_binary_shorthand(self, capsys):
        code, out, _ = run(capsys, "ball", "--t", "2", "--seq", "0110")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "size 3"
        assert set(lines[:-1]) == {"00", "01", "10"}

    def test_qary_commas(self, capsys):
        code, out, _ = run(
            capsys, "ball", "--q", "4", "--t", "1", "--seq", "0,3,2"
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "size 3"

    def test_symbol_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "ball", "--q", "2", "--t", "1", "--seq", "0,3"
        )
        assert code == USAGE_ERROR

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "ball", "--seq", "0110")
        assert code == USAGE_ERROR


class TestEncode:
    def test_pll_roundtrip_file(self, tmp_path, capsys):
        src = tmp_path / "x.txt"
        dst = tmp_path / "y.txt"
        src.write_text("1101010101010101\n")
        code, out, _ = run(
            capsys, "encode", "--scheme", "pll",
            "--in", str(src), "--out", str(dst),
        )
        assert code == 0
        assert dst.read_text().strip() == "101010110010001011"

    def test_dense_default_delta(self, tmp_path, capsys):
        rng = random.Random(2)
        src = tmp_path / "x.txt"
        dst = tmp_path / "y.txt"
        x = "".join(str(rng.randint(0, 1)) for _ in range(1024))
        src.write_text(x + "\n")
        code, out, _ = run(
            capsys, "encode", "--scheme", "dense", "--t", "1",
            "--in", str(src), "--out", str(dst),
        )
        assert code == 0
        assert "1024 -> 1028" in out

    @pytest.mark.parametrize("n,t", [(256, 1), (256, 2), (1024, 2)])
    def test_dense_default_delta_meets_capacity(self, tmp_path, capsys, n, t):
        # the default is the paper's delta, whose windows fit their records
        # once each is coded by its exact rank (640 at n = 1024, t = 2)
        from burstcodes.seqcore import parse_sequence
        from burstcodes.tburst import DensityParams, default_delta, dense_decode

        rng = random.Random(2)
        src = tmp_path / "x.txt"
        dst = tmp_path / "y.txt"
        x = "".join(str(rng.randint(0, 1)) for _ in range(n))
        src.write_text(x + "\n")
        code, out, _ = run(
            capsys, "encode", "--scheme", "dense", "--t", str(t),
            "--in", str(src), "--out", str(dst),
        )
        assert code == 0
        assert f"{n} -> {n + 4 * t}" in out
        dp = DensityParams(n, t, default_delta(n, t))
        y = parse_sequence(dst.read_text())
        assert "".join(map(str, dense_decode(y, dp))) == x

    def test_dense_short_word_needs_delta(self, tmp_path, capsys):
        # at n <= 2 the paper's delta leaves too few record bits
        src = tmp_path / "x.txt"
        src.write_text("01\n")
        code, _, err = run(
            capsys, "encode", "--scheme", "dense",
            "--in", str(src), "--out", str(tmp_path / "y.txt"),
        )
        assert code == USAGE_ERROR
        assert "capacity" in err
        assert not (tmp_path / "y.txt").exists()

    def test_dense_t0_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "x.txt"
        src.write_text("0110" * 4 + "\n")
        code, _, err = run(
            capsys, "encode", "--scheme", "dense", "--t", "0", "--delta", "8",
            "--in", str(src), "--out", str(tmp_path / "y.txt"),
        )
        assert code == USAGE_ERROR
        assert "t must be at least 1" in err
        assert not (tmp_path / "y.txt").exists()

    @pytest.mark.parametrize(
        "argv, want", [
            (("--t", "0"), "t must be at least 1"),
            (("--t", "-1"), "t must be at least 1"),
            (("--delta", "0"), "delta must be at least |w| = 2t"),
        ],
        ids=["t0", "t-1", "delta0"],
    )
    def test_dense_option_below_range_is_usage_error(
        self, tmp_path, capsys, argv, want
    ):
        # without --delta the default is computed from t, which must be
        # checked first; --delta 0 is refused, not replaced by the default
        src = tmp_path / "x.txt"
        src.write_text("0110" * 4 + "\n")
        code, _, err = run(
            capsys, "encode", "--scheme", "dense", *argv,
            "--in", str(src), "--out", str(tmp_path / "y.txt"),
        )
        assert code == USAGE_ERROR
        assert want in err
        assert not (tmp_path / "y.txt").exists()

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "encode", "--scheme", "pll",
            "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "y"),
        )
        assert code == USAGE_ERROR


class TestSieveVerifyDecode:
    def test_full_flow(self, tmp_path, capsys):
        book = tmp_path / "book.json"
        code, out, _ = run(
            capsys, "sieve", "--family", "levenshtein", "--n", "10",
            "--out", str(book),
        )
        assert code == 0
        assert book.exists()

        code, out, _ = run(
            capsys, "verify", "--book", str(book), "--t", "2", "--sweep"
        )
        assert code == 0
        assert "confusability: pass" in out
        assert "sweep: pass" in out

        # corrupt a codeword by a 2-burst and decode it back
        import json

        words = json.loads(book.read_text())["words"]
        w = "".join(str(b) for b in words[0])
        code, out, _ = run(
            capsys, "decode", "--book", str(book), "--received", w[2:]
        )
        assert code == 0
        assert out.strip() == w

    def test_pbounded_needs_window(self, tmp_path, capsys):
        book = tmp_path / "book.json"
        code, _, _ = run(
            capsys, "sieve", "--family", "pbounded", "--n", "10",
            "--P", "4", "--out", str(book),
        )
        assert code == 0
        import json

        words = json.loads(book.read_text())["words"]
        w = "".join(str(b) for b in words[0])
        code, _, err = run(
            capsys, "decode", "--book", str(book), "--received", w[1:]
        )
        assert code == USAGE_ERROR
        code, out, _ = run(
            capsys, "decode", "--book", str(book), "--received", w[1:],
            "--window", "1:4",
        )
        assert code == 0
        assert out.strip() == w

    def test_window_longer_than_P_is_usage_error(self, tmp_path, capsys):
        # the decoder searches [LO, LO+P-1]: with --window 1:16 and P = 6 it
        # used to decode this 2-burst at positions 10-11 to a wrong codeword
        book = tmp_path / "book.json"
        code, _, _ = run(
            capsys, "sieve", "--family", "pbounded", "--n", "16",
            "--P", "6", "--out", str(book),
        )
        assert code == 0
        sent, received = "0000000000100110", "00000000000110"
        code, out, err = run(
            capsys, "decode", "--book", str(book), "--received", received,
            "--window", "1:16",
        )
        assert code == USAGE_ERROR
        assert "P = 6" in err and not out
        code, out, err = run(
            capsys, "decode", "--book", str(book), "--received", received,
            "--window", "5:3",
        )
        assert code == USAGE_ERROR
        assert "1 <= LO <= HI" in err and not out
        code, out, _ = run(
            capsys, "decode", "--book", str(book), "--received", received,
            "--window", "9:14",
        )
        assert code == 0
        assert out.strip() == sent

    def test_malformed_window_is_usage_error(self, tmp_path, capsys):
        # each used to exit 2 with Python's own unpacking or int() message
        book = tmp_path / "book.json"
        code, _, _ = run(
            capsys, "sieve", "--family", "pbounded", "--n", "10",
            "--P", "4", "--out", str(book),
        )
        assert code == 0
        for window in ("3", "3:4:5", "a:b", "3:", ":4", "1.5:3"):
            code, out, err = run(
                capsys, "decode", "--book", str(book), "--received",
                "000000000", "--window", window,
            )
            assert code == USAGE_ERROR, window
            assert err == "error: --window requires LO:HI\n" and not out, window

    @pytest.mark.parametrize(
        "family, option", [
            ("pbounded", "P"), ("loc", "delta"), ("ctb", "delta"),
            ("perm", "delta"),
        ],
    )
    def test_sieve_missing_option_is_usage_error(
        self, tmp_path, capsys, family, option
    ):
        code, _, err = run(
            capsys, "sieve", "--family", family, "--n", "8",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == USAGE_ERROR
        assert option in err
        assert not (tmp_path / "x.json").exists()

    def test_sieve_n0_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "sieve", "--family", "levenshtein", "--n", "0",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == USAGE_ERROR
        assert "n >= 1" in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "argv, want", [
            (("--family", "pbounded", "--P", "0"), "P >= 1"),
            (("--family", "pbounded", "--P", "-3"), "P >= 1"),
            (("--family", "tenengolts", "--q", "1"), "q >= 2"),
            (("--family", "loc", "--t", "0", "--delta", "8"), "t >= 1"),
        ],
        ids=["pbounded-P0", "pbounded-P-3", "tenengolts-q1", "loc-t0"],
    )
    def test_sieve_option_below_range_is_usage_error(
        self, tmp_path, capsys, argv, want
    ):
        code, _, err = run(
            capsys, "sieve", *argv, "--n", "8", "--out", str(tmp_path / "x.json"),
        )
        assert code == USAGE_ERROR
        assert want in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "argv, want", [
            (("--q", "3", "--t", "1", "--delta", "2", "--P", "2"), "require q even"),
            (
                ("--q", "2", "--t", "2", "--delta", "7", "--P", "4"),
                "require delta + t - 1 <= P",
            ),
        ],
        ids=["q3", "window-past-P"],
    )
    def test_sieve_ctb_params_refused_by_decoder_are_usage_error(
        self, tmp_path, capsys, argv, want
    ):
        # no book is written that `verify --sweep` could not decode
        code, _, err = run(
            capsys, "sieve", "--family", "ctb", "--n", "8", *argv,
            "--out", str(tmp_path / "x.json"),
        )
        assert code == USAGE_ERROR
        assert want in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "n, want", [(4, FAILURE), (5, FAILURE), (6, FAILURE), (7, 0)]
    )
    def test_sieve_c2b_empty_row_product_is_failure(
        self, tmp_path, capsys, n, want
    ):
        # below n = 7 every word of the q = 6 row product has a symbol >= 6:
        # valid options, so a failure and not a usage error
        out = tmp_path / "x.json"
        code, _, err = run(
            capsys, "sieve", "--family", "c2b", "--q", "6", "--n", str(n),
            "--out", str(out),
        )
        assert code == want
        assert out.exists() == (want == 0)
        assert want == 0 or "empty row product" in err

    def test_undecodable_returns_failure(self, tmp_path, capsys):
        book = tmp_path / "book.json"
        run(
            capsys, "sieve", "--family", "levenshtein", "--n", "10",
            "--out", str(book),
        )
        code, _, err = run(
            capsys, "decode", "--book", str(book), "--received", "0" * 7
        )
        assert code in (FAILURE, USAGE_ERROR)
        # no word of VT(psi(x)) = 0 mod 20 is within a 1-burst of 000000011
        assert json.loads(book.read_text())["spec"]["params"] == {"a": 0}
        code, _, err = run(
            capsys, "decode", "--book", str(book), "--received", "000000011"
        )
        assert code == FAILURE
        assert "not decodable" in err

    def test_verify_sweep_reports_failures(self, tmp_path, capsys):
        # 0000000011 is not in the a = 0 code: its decoder refuses or
        # mis-decodes each corruption, refusing the first
        path = tmp_path / "book.json"
        word = (0,) * 8 + (1, 1)
        path.write_text(_book_json("levenshtein", 10, 2, {"a": 0}, [word]))
        code, out, _ = run(
            capsys, "verify", "--book", str(path), "--t", "2", "--sweep"
        )
        assert code == FAILURE
        assert "confusability: pass" in out
        assert "sweep: 19/19 failures; first: word 0000000011" in out
        assert "got not decodable" in out

    def test_verify_reports_witness(self, tmp_path, capsys):
        # hand-build a book with confusable words
        from burstcodes.verify import Codebook, CodeSpec

        bad = Codebook(
            spec=CodeSpec("vt", 4, 2, 1, {"a": 0}),
            words=[(0, 0, 0, 0), (0, 0, 0, 1)],
            redundancy_bits=0.0,
        )
        path = tmp_path / "bad.json"
        path.write_text(bad.to_json())
        code, out, _ = run(capsys, "verify", "--book", str(path), "--t", "1")
        assert code == FAILURE
        assert "witness" in out


def _book_json(family, n, q, params, words, drop_n=False, raw_words=None) -> str:
    from burstcodes.verify import Codebook, CodeSpec

    raw = json.loads(
        Codebook(CodeSpec(family, n, q, 1, params), words, 0.0).to_json()
    )
    if drop_n:
        del raw["spec"]["n"]
    if raw_words is not None:
        raw["words"] = raw_words
    return json.dumps(raw)


# book files that do not fit their family: (file text, received word, the
# field the error names)
MALFORMED_BOOKS = {
    "no-spec-n": (
        _book_json("vt", 4, 2, {"a": 0}, [(0,) * 4], drop_n=True), "000",
        "spec.n",
    ),
    "vt-no-a": (_book_json("vt", 4, 2, {}, [(0,) * 4]), "000", "'a'"),
    "ctb-no-params": (
        _book_json("ctb", 8, 4, {}, [(0,) * 8]), "0,0,0,0,0,0,0", "delta",
    ),
    "not-an-object": ("[]", "000", "JSON object"),
    "vt-a-string": (
        _book_json("vt", 4, 2, {"a": "x"}, [(0,) * 4]), "000", "spec.params.a",
    ),
    "vt-a-list": (
        _book_json("vt", 4, 2, {"a": [1]}, [(0,) * 4]), "000", "'a': 0",
    ),
    "ctb-row-sums-short": (
        _book_json(
            "ctb", 8, 4,
            {"delta": 4, "P": 6, "c0": 0, "c1": 0, "row_sums": [[[0, 0], [0, 0]]]},
            [(0,) * 8],
        ),
        "0,0,0,0,0,0,0", "row_sums",
    ),
    "word-not-a-list": (
        _book_json("vt", 4, 2, {"a": 0}, [], raw_words=[5]), "000", "words",
    ),
}


class TestMalformedBook:
    @pytest.mark.parametrize("label", MALFORMED_BOOKS)
    @pytest.mark.parametrize("command", ["verify", "decode"])
    def test_is_usage_error(self, tmp_path, capsys, label, command):
        text, received, field = MALFORMED_BOOKS[label]
        path = tmp_path / "book.json"
        path.write_text(text)
        if command == "verify":
            argv = ["verify", "--book", str(path), "--t", "1", "--sweep"]
        else:
            argv = ["decode", "--book", str(path), "--received", received]
        code, _, err = run(capsys, *argv)
        assert code == USAGE_ERROR
        assert field in err


class TestBounds:
    def test_lp_value(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "4", "--t", "2")
        assert code == 0
        assert out.strip() == "4"

    def test_perm_value(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "6", "--t", "2", "--perm")
        assert code == 0
        assert out.strip() == "72"

    def test_bad_domain(self, capsys):
        code, _, _ = run(capsys, "bounds", "--n", "5", "--t", "2")
        assert code == USAGE_ERROR

    @pytest.mark.parametrize(
        "argv",
        [
            ("--n", "4", "--t", "0"),
            ("--n", "4", "--t", "2", "--q", "1"),
            ("--n", "4", "--t", "-2"),
            ("--perm", "--n", "4", "--t", "0"),
        ],
        ids=["t0", "q1", "t-2", "perm-t0"],
    )
    def test_option_below_range_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "bounds", *argv)
        assert code == USAGE_ERROR
        assert out == ""
        assert "requires" in err


class TestTable:
    def test_csv_output(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "table", "--families", "vt,perm", "--ns", "16,32",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "# schema_version: 1"
        rows = list(csv.reader(lines[1:]))
        assert rows[0] == ["family", "burst", "formula", "n=16", "n=32"]
        assert len(rows) == 3

    def cells(self, tmp_path, capsys, *argv):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(capsys, "table", *argv, "--out", str(out_path))
        assert code == 0
        rows = list(csv.reader(out_path.read_text().splitlines()[1:]))
        return {r[0]: r[3:] for r in rows[1:]}

    def test_default_cells_pinned(self, tmp_path, capsys):
        # the exact redundancy log2(ambient / largest class) at n = 64; the
        # ctb and perm classes are not counted
        cells = self.cells(tmp_path, capsys)
        assert list(cells) == [
            "vt", "levenshtein", "tenengolts", "induced", "c2b", "ctb", "perm",
        ]
        pinned = ("vt", "levenshtein", "tenengolts", "c2b")
        assert [cells[f][2] for f in pinned] == ["6.022", "7.000", "7.000", "7.038"]
        for family in (*pinned, "induced"):
            assert "" not in cells[family], family
        assert cells["ctb"] == cells["perm"] == ["", "", ""]

    def test_qary_cells_pinned(self, tmp_path, capsys):
        cells = self.cells(
            tmp_path, capsys, "--q", "4", "--ns", "32",
            "--families", "tenengolts,induced,c2b",
        )
        assert cells == {
            "tenengolts": ["7.000"], "induced": ["9.999"], "c2b": ["11.940"],
        }

    def test_family_without_code_at_n_leaves_cell_blank(self, tmp_path, capsys):
        # induced has no code at n = 1; its cell is blank, the rest written
        cells = self.cells(tmp_path, capsys, "--ns", "1,2")
        assert cells["induced"] == ["", "1.000"]
        assert cells["vt"] == ["1.000", "1.000"]

    def test_unknown_family_is_usage_error(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, _, err = run(
            capsys, "table", "--families", "vt,foo", "--ns", "8",
            "--out", str(out_path),
        )
        assert code == USAGE_ERROR
        assert "unknown family 'foo'" in err
        assert not out_path.exists()

    def test_registry_family_without_formula_keeps_its_row(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "table", "--families", "pbounded,pll_lev,loc", "--ns", "8",
            "--out", str(out_path),
        )
        assert code == 0
        rows = list(csv.reader(out_path.read_text().splitlines()[1:]))
        assert [r[:3] for r in rows[1:]] == [
            ["pbounded", "?", "?"], ["pll_lev", "?", "?"], ["loc", "?", "?"],
        ]


def test_module_entry_point_exits_with_mains_code(capsys, monkeypatch):
    # python -m burstcodes.cli runs main on sys.argv and exits with its code
    monkeypatch.setattr(sys, "argv", ["burstcodes", "ball", "--t", "2", "--seq", "0110"])
    monkeypatch.delitem(sys.modules, "burstcodes.cli")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("burstcodes.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "size 3"
