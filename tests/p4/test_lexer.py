"""Unit tests for the P4 lexer."""

import pytest

from repro.compiler import compile_front_midend
from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.metrics import COUNTERS
from repro.p4.lexer import (
    Lexer,
    LexerError,
    Token,
    TokenKind,
    clear_lexer_cache,
    line_tokens,
    tokenize,
)


class TestBasicTokens:
    def test_identifiers_and_keywords(self):
        tokens = tokenize("control my_ctrl apply")
        assert tokens[0].kind == TokenKind.KEYWORD
        assert tokens[1].kind == TokenKind.IDENTIFIER
        assert tokens[1].text == "my_ctrl"
        assert tokens[2].kind == TokenKind.KEYWORD
        assert tokens[3].kind == TokenKind.END

    def test_symbols(self):
        tokens = tokenize("{ } ( ) ; = ==")
        texts = [token.text for token in tokens[:-1]]
        assert texts == ["{", "}", "(", ")", ";", "=", "=="]

    def test_multichar_symbols_preferred(self):
        tokens = tokenize("<< >> <= >= != && || ++")
        texts = [token.text for token in tokens[:-1]]
        assert texts == ["<<", ">>", "<=", ">=", "!=", "&&", "||", "++"]

    def test_end_token_always_present(self):
        assert tokenize("")[-1].kind == TokenKind.END


class TestNumbers:
    def test_plain_decimal(self):
        token = tokenize("42")[0]
        assert token.kind == TokenKind.NUMBER
        assert token.value == 42
        assert token.width is None

    def test_width_annotated(self):
        token = tokenize("8w255")[0]
        assert token.value == 255
        assert token.width == 8

    def test_width_annotated_hex(self):
        token = tokenize("16w0xBEEF")[0]
        assert token.value == 0xBEEF
        assert token.width == 16

    def test_hex_literal(self):
        token = tokenize("0xFF")[0]
        assert token.value == 255

    def test_binary_literal(self):
        token = tokenize("0b1010")[0]
        assert token.value == 10

    def test_bad_literal_raises(self):
        with pytest.raises(LexerError):
            tokenize("0xZZ")


class TestCommentsAndPositions:
    def test_line_comments_skipped(self):
        tokens = tokenize("a // comment\n b")
        assert [token.text for token in tokens[:-1]] == ["a", "b"]

    def test_block_comments_skipped(self):
        tokens = tokenize("a /* multi\n line */ b")
        assert [token.text for token in tokens[:-1]] == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexerError):
            tokenize("a /* never closed")

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[1].column == 3

    def test_unexpected_character(self):
        with pytest.raises(LexerError):
            tokenize("a $ b")


class TestRealisticSnippet:
    def test_action_snippet(self):
        source = "action assign() { hdr.a = 8w1; }"
        kinds = [token.kind for token in Lexer(source).tokenize()]
        assert TokenKind.NUMBER in kinds
        assert kinds[-1] == TokenKind.END

    def test_token_helpers(self):
        token = tokenize("apply")[0]
        assert token.kind is TokenKind.KEYWORD
        assert not token.is_symbol("apply")


def _lex(method):
    """Tokens, or the error text."""

    try:
        return method()
    except LexerError as exc:
        return str(exc)


def assert_memo_matches_scan(source):
    """Cold and warm line memo both agree with the full scan."""

    reference = _lex(Lexer(source).scan)
    clear_lexer_cache()
    cold = _lex(Lexer(source).tokenize)
    warm = _lex(Lexer(source).tokenize)
    assert cold == reference and warm == reference
    if not isinstance(reference, str):
        assert all(type(token) is Token for token in warm)


class TestLineMemo:
    """``tokenize`` assembles tokens from the line memo; ``scan`` is the
    full scan it must reproduce token for token and error for error."""

    @pytest.mark.parametrize(
        "source",
        [
            "a /* multi\n line */ b\nc",  # a block comment spanning lines
            "control c {\r\n    apply { x = 8w1; }\r\n}\r\n",  # CRLF endings
            "a;\nb /* never closed\nc;",  # an unterminated block comment
            "a;\nb = 8w1;\n    c = 0xZZ;\n",  # a bad literal on a later line
            "a;\n  b $ c;",  # a bad character on a later line
            "header H { bit<8> a; }",  # no trailing newline
            "\n\n  \n",  # blank lines only
            "",  # the empty source
        ],
    )
    def test_edge_cases(self, source):
        assert_memo_matches_scan(source)

    def test_errors_name_the_failing_line(self):
        with pytest.raises(LexerError) as info:
            tokenize("a;\nb = 8w1;\n    c = 0xZZ;\n")
        assert str(info.value) == "bad numeric literal '0xZZ' at line 3, column 9"

    def test_generated_snapshots(self):
        generator = RandomProgramGenerator(GeneratorConfig(seed=3))
        sources = [
            snapshot.source
            for index in range(12)
            for snapshot in compile_front_midend(
                generator.generate_indexed(index)
            ).changed_snapshots()
        ]
        clear_lexer_cache()
        before = COUNTERS["lexer_hits"]
        for source in sources:
            assert Lexer(source).tokenize() == Lexer(source).scan()
        # Snapshots of one program share most lines: most lookups hit.
        lines = sum(source.count("\n") + 1 for source in sources)
        assert COUNTERS["lexer_hits"] - before > lines // 2

    def test_equal_tokens_of_different_lines_are_one_tuple(self):
        clear_lexer_cache()
        first = line_tokens("    hdr.h.a = 8w1;")
        second = line_tokens("    hdr.h.a = 8w2;")
        # Same kind, text, value, width and column: one shared tuple.
        assert all(left is right for left, right in zip(first[:-2], second[:-2]))
        assert first[-2] != second[-2] and first[-1] is second[-1]
        # A token at another column is another tuple.
        shifted = line_tokens("hdr.h.a = 8w1;")
        assert shifted[0] == first[0]._replace(column=1)

    def test_clearing_the_memo_drops_the_shared_tokens(self):
        clear_lexer_cache()
        first = line_tokens("x = y;")
        clear_lexer_cache()
        again = line_tokens("x  =  y;")
        assert again[0] == first[0] and again[0] is not first[0]
