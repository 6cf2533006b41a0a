"""``parse_program``'s memoised path must be exact.

``parse_program`` builds its token list from the lexer's shared line tokens
and answers every one-line statement it saw before from the statement memo;
whenever that raises it reparses with the exact parser.  A parse with warm
memos must equal one with cleared memos (and the exact parser's), node for
node, and every error message must be the exact parser's.
"""

import pytest

from repro.compiler import compile_front_midend
from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.core.validation import clear_validation_caches
from repro.metrics import COUNTERS
from repro.p4 import emit_program, parse_program
from repro.p4.lexer import LexerError
from repro.p4.parser import Parser, ParserError

#: About 40 programs from the default, idiom-heavy, stack-heavy and
#: register-heavy generator configs.
CONFIGS = (
    GeneratorConfig(seed=41),
    GeneratorConfig(seed=42, p_idiom=0.9),
    GeneratorConfig(seed=43, p_header_stack=0.9),
    GeneratorConfig(seed=44, p_register=0.9),
)
PROGRAMS_PER_CONFIG = 40


@pytest.fixture(scope="module")
def snapshot_sources():
    sources = []
    for config in CONFIGS:
        generator = RandomProgramGenerator(config)
        for index in range(PROGRAMS_PER_CONFIG):
            result = compile_front_midend(generator.generate_indexed(index))
            sources.extend(snapshot.source for snapshot in result.changed_snapshots())
    return sources


def _parse(parse, source):
    """The program, or the error's type and text."""

    try:
        return parse(source)
    except (ParserError, LexerError) as exc:
        return type(exc), str(exc)


def exact(source):
    """The exact parser's answer, with cleared memos."""

    clear_validation_caches()
    return _parse(lambda text: Parser(text).parse_program(), source)


def cold(source):
    """``parse_program``'s answer, with cleared memos."""

    clear_validation_caches()
    return _parse(parse_program, source)


@pytest.fixture
def exact_parses(monkeypatch):
    """The sources the exact parser parses from now on."""

    sources = []
    init = Parser.__init__

    def counted(self, source):
        sources.append(source)
        init(self, source)

    monkeypatch.setattr(Parser, "__init__", counted)
    return sources


class TestGeneratedSnapshots:
    def test_warm_parses_equal_cold_parses(self, snapshot_sources, exact_parses):
        references = [cold(source) for source in snapshot_sources]
        clear_validation_caches()
        before = COUNTERS["statements_hits"]
        warm = [parse_program(source) for source in snapshot_sources]
        assert warm == references
        for program, source in zip(warm, snapshot_sources):
            assert emit_program(program) == source
        # The snapshots of one compilation share most of their statements,
        # and a well-formed snapshot never needs the exact parser.
        assert COUNTERS["statements_hits"] - before > len(snapshot_sources)
        assert exact_parses == []


PROGRAM = """header Hdr_t {
    bit<8> a;
    bit<8> b;
}
struct Headers {
    Hdr_t h;
}
control ingress(inout Headers hdr) {
    apply {
        hdr.h.a = 8w1;
        hdr.h.b = hdr.h.a + 8w2;
@@
    }
}
"""


def program(body: str) -> str:
    return PROGRAM.replace("@@", body)


class TestErrorsAreExact:
    """Malformed sources, each parsed after a well-formed one that filled
    the memos with the lines they share."""

    @pytest.mark.parametrize(
        "source",
        [
            # a line that fails to lex
            program("        hdr.h.a = 8w1 $ 8w2;"),
            # a source containing "/*": a block comment, then an unterminated one
            program("        /* a comment */ hdr.h.a = 8w3;\n        hdr.h.b = ;"),
            program("        hdr.h.a = 8w3; /* never closed"),
            # a bad statement on a line after memoised ones
            program("        hdr.h.a = 8w1;\n        hdr.h.b = hdr.h.a +;"),
            program("        hdr.h.a + 8w1;"),
            # an if whose else starts on the next line
            program(
                "        if (hdr.h.a == 8w1) hdr.h.b = 8w2;\n"
                "        else hdr.h.b = ;"
            ),
            program("        if (hdr.h.a == 8w1) hdr.h.b = 8w2;\n        else"),
        ],
    )
    def test_warm_error_is_the_exact_error(self, source):
        reference = exact(source)
        assert isinstance(reference, tuple), "the source must be malformed"
        clear_validation_caches()
        parse_program(program("        hdr.h.a = 8w1;\n        hdr.h.b = 8w2;"))
        assert _parse(parse_program, source) == reference

    def test_error_names_the_line_of_the_bad_statement(self):
        source = program("        hdr.h.a = 8w1;\n        hdr.h.b = hdr.h.a +;")
        parse_program(program("        hdr.h.a = 8w1;"))
        with pytest.raises(ParserError) as info:
            parse_program(source)
        assert "(at line 13, column 28, near ';')" in str(info.value)


class TestLineSpanningStatements:
    @pytest.mark.parametrize(
        "body",
        [
            # the then branch fits on the if's line; the else is on the next
            "        if (hdr.h.a == 8w1) hdr.h.b = 8w2;\n        else hdr.h.b = 8w3;",
            # the same if line without an else
            "        if (hdr.h.a == 8w1) hdr.h.b = 8w2;",
            # a block on one line, and one statement over two lines
            "        { hdr.h.b = 8w2; }\n        hdr.h.b = hdr.h.a\n            + 8w1;",
            # two statements on one line
            "        hdr.h.a = 8w1; hdr.h.b = 8w2;",
            "        /* a block comment */ hdr.h.a = 8w1;",
        ],
    )
    def test_warm_parse_is_the_exact_parse(self, body):
        source = program(body)
        reference = exact(source)
        assert not isinstance(reference, tuple)
        clear_validation_caches()
        for other in (
            program("        if (hdr.h.a == 8w1) hdr.h.b = 8w2;"),
            program("        hdr.h.b = 8w2;\n        hdr.h.a = 8w1;"),
            source,
        ):
            parse_program(other)
        assert parse_program(source) == reference

    def test_if_lines_are_not_memoised(self, exact_parses):
        # A memoised one-line if would lose the else on the next line; the
        # fallback would then hide that, so the exact parser must not run.
        clear_validation_caches()
        with_else = program(
            "        if (hdr.h.a == 8w1) hdr.h.b = 8w2;\n        else hdr.h.b = 8w3;"
        )
        parse_program(program("        if (hdr.h.a == 8w1) hdr.h.b = 8w2;"))
        (statement,) = parse_program(with_else).controls()[0].apply.statements[2:]
        assert statement.else_branch is not None
        assert exact_parses == []
