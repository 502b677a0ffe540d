"""Unit tests for the MiniC lexer."""

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import tokenize


def kinds(src):
    return [(t.kind, t.value) for t in tokenize(src)[:-1]]  # drop EOF


class TestBasics:
    def test_empty_source(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind == "eof"

    def test_identifiers_and_keywords(self):
        assert kinds("int x floaty") == [
            ("kw", "int"),
            ("ident", "x"),
            ("ident", "floaty"),
        ]

    def test_all_keywords(self):
        for kw in ("int", "float", "void", "struct", "if", "else", "while",
                   "do", "for", "return", "break", "continue", "malloc",
                   "sizeof"):
            assert kinds(kw) == [("kw", kw)]

    def test_underscore_identifiers(self):
        assert kinds("_x a_b __c1") == [
            ("ident", "_x"),
            ("ident", "a_b"),
            ("ident", "__c1"),
        ]


class TestNumbers:
    def test_decimal_int(self):
        assert kinds("0 7 12345") == [("int", 0), ("int", 7), ("int", 12345)]

    def test_hex_int(self):
        assert kinds("0x10 0xFF") == [("int", 16), ("int", 255)]

    def test_bad_hex(self):
        with pytest.raises(LexError):
            tokenize("0x")

    def test_float_forms(self):
        assert kinds("1.5") == [("float", 1.5)]
        assert kinds("2.0e3") == [("float", 2000.0)]
        assert kinds("1e-2") == [("float", 0.01)]
        assert kinds("3E+2") == [("float", 300.0)]

    def test_int_then_dot_method_not_float(self):
        # "1." without digits stays an int followed by punct.
        assert kinds("1 . 2")[0] == ("int", 1)


class TestOperators:
    def test_maximal_munch(self):
        assert kinds("<<=") == [("punct", "<<"), ("punct", "=")]
        assert kinds("a<=b") == [("ident", "a"), ("punct", "<="), ("ident", "b")]
        assert kinds("a->b")[1] == ("punct", "->")
        assert kinds("a- >b")[1] == ("punct", "-")

    def test_logical_ops(self):
        assert [k for k, _ in kinds("&& || & |")] == ["punct"] * 4
        assert [v for _, v in kinds("&& || & |")] == ["&&", "||", "&", "|"]

    def test_all_single_punct(self):
        for p in "+-*/%<>=!~&|^?:;,.()[]{}":
            assert kinds(p) == [("punct", p)]

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")


class TestCommentsAndLocations:
    def test_line_comment(self):
        assert kinds("a // hidden\nb") == [("ident", "a"), ("ident", "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [("ident", "a"), ("ident", "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError, match="unterminated"):
            tokenize("a /* never ends")

    def test_locations(self):
        toks = tokenize("a\n  b")
        assert toks[0].loc.line == 1 and toks[0].loc.col == 1
        assert toks[1].loc.line == 2 and toks[1].loc.col == 3

    def test_token_helpers(self):
        t = tokenize("int")[0]
        assert t.is_kw("int") and not t.is_kw("float")
        p = tokenize(";")[0]
        assert p.is_punct(";") and not p.is_punct(",")
