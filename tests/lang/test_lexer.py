"""Lexer tests."""

import pytest

from repro.lang.lexer import LexError, tokenize


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src)[:-1]]


class TestTokens:
    def test_empty(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind == "eof"

    def test_keywords_vs_idents(self):
        assert kinds("int x while foo") == [
            ("kw", "int"), ("ident", "x"), ("kw", "while"), ("ident", "foo"),
        ]

    def test_numbers(self):
        assert kinds("0 42 1234") == [
            ("int_lit", "0"), ("int_lit", "42"), ("int_lit", "1234"),
        ]

    def test_maximal_munch_operators(self):
        assert [t for _, t in kinds("a<=b==c&&d")] == ["a", "<=", "b", "==", "c", "&&", "d"]

    def test_single_char_ops(self):
        assert [t for _, t in kinds("(x+y)*z;")] == ["(", "x", "+", "y", ")", "*", "z", ";"]

    def test_line_comment(self):
        assert kinds("x // comment here\ny") == [("ident", "x"), ("ident", "y")]

    def test_block_comment(self):
        assert kinds("x /* multi\nline */ y") == [("ident", "x"), ("ident", "y")]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("x /* oops")

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("x $ y")

    def test_positions(self):
        toks = tokenize("ab\n  cd")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 3)

    def test_underscored_identifiers(self):
        assert kinds("_x x_1 __a") == [("ident", "_x"), ("ident", "x_1"), ("ident", "__a")]


class TestAsciiOnly:
    """NAME and INT are ASCII classes: other characters are lex errors."""

    @pytest.mark.parametrize(
        "src, line, col, ch",
        [
            ("x = ²;", 1, 5, "²"),  # superscript digit (str.isdigit)
            ("x = ١٢;", 1, 5, "١"),  # Arabic-Indic digits (int() accepts)
            ("int x²;", 1, 6, "²"),  # not part of an identifier
            ("int x;\n  é = 1;", 2, 3, "é"),
            ("int x;\n/* c\n */ y = ٣;", 3, 9, "٣"),  # after a comment
            ("x = 1;", 1, 2, " "),  # non-ASCII whitespace
        ],
    )
    def test_unicode_raises_with_position(self, src, line, col, ch):
        with pytest.raises(LexError) as info:
            tokenize(src)
        assert (info.value.line, info.value.col) == (line, col)
        assert str(info.value) == f"{line}:{col}: unexpected character {ch!r}"

    def test_unterminated_comment_position(self):
        with pytest.raises(LexError) as info:
            tokenize("x;\n  /* oops")
        assert (info.value.line, info.value.col) == (2, 3)

    def test_cli_reports_location_and_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "sq.c"
        path.write_text("int x;\nmain {\n  x = ²;\n}\n", encoding="utf-8")
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: error: 3:7: unexpected character" in err
        assert "Traceback" not in err


class TestTokenValue:
    def test_equality_hash_repr(self):
        a, b = tokenize("x")[0], tokenize("x")[0]
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != tokenize(" x")[0]
        assert a != ("ident", "x", 1, 1)
        assert repr(a) == "Token(ident,'x'@1:1)"


def _suite_sources():
    from repro.bench import nidhugg_suite, svcomp_suite

    return [(t.name, t.source) for t in svcomp_suite() + nidhugg_suite()]


@pytest.mark.parametrize("name, source", _suite_sources())
def test_positions_slice_their_text(name, source):
    lines = source.split("\n")
    for tok in tokenize(source)[:-1]:
        line = lines[tok.line - 1]
        assert line[tok.col - 1 : tok.col - 1 + len(tok.text)] == tok.text, tok
