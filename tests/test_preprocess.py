import codecs

import pytest
from hypothesis import given, strategies as st

from stemcluster import build_lexicon, clean_text, tokenize
from stemcluster.errors import FormatError, InputEncodingError
from stemcluster.preprocess import (
    Lexicon,
    lexicon_sort_key,
    read_lexicon,
    read_text,
    write_lexicon,
)

from helpers import build_lexicon_oracle

bengali_tokens = st.text(
    alphabet=st.characters(min_codepoint=0x0985, max_codepoint=0x09B9), max_size=6
)
# a token may be one character, whitespace only, padded, or mix Bangla
# with Latin letters and a combining mark
padded_tokens = st.builds(
    lambda left, core, right: left + core + right,
    st.text(alphabet=" \t\n\u00a0\u3000", max_size=2),
    st.text(alphabet="কখগাি্অaZ\u0301", max_size=4),
    st.text(alphabet=" \t\n\u00a0\u3000", max_size=2),
)
# raw text: the whole Bengali block (digits too), the joiners, and what
# cleaning drops: Latin, ASCII digits, whitespace of every kind, a byte-order
# mark, astral characters and lone surrogates
raw_texts = st.lists(
    st.one_of(
        st.characters(min_codepoint=0x0980, max_codepoint=0x09FF),
        st.sampled_from([
            "\u200c", "\u200d", "a", "Z", "7", " ", "\t", "\n", "\r", "\u00a0", "\u2028",
            "\ufeff", "\U0001f600", "\U00020000", "\ud800", "\udfff",
        ]),
    ),
    max_size=40,
).map("".join)


class TestCleanText:
    def test_digits_and_punctuation_become_one_space(self):
        assert clean_text("বাংলা 123!") == "বাংলা "

    def test_empty(self):
        assert clean_text("") == ""

    def test_latin_runs_collapse(self):
        # hand-enumerated: each maximal non-Bengali run -> exactly one space
        assert clean_text("abcবাংলাabc") == " বাংলা "

    def test_bengali_digits_stripped_by_default(self):
        assert clean_text("৫বাংলা৯৯") == " বাংলা "

    def test_zero_width_joiners_dropped_not_spaced(self):
        assert clean_text("ক‌খ") == "কখ"
        assert clean_text("ক‍খ") == "কখ"

    @given(st.text())
    def test_idempotent(self, text):
        once = clean_text(text)
        assert clean_text(once) == once

    @given(st.text())
    def test_output_alphabet(self, text):
        for ch in clean_text(text):
            code = ord(ch)
            assert ch == " " or (0x0980 <= code <= 0x09FF and not 0x09E6 <= code <= 0x09EF)


class TestTokenize:
    def test_simple_split(self):
        assert tokenize("বাংলা দেশ") == ["বাংলা", "দেশ"]

    def test_surrounding_whitespace(self):
        assert tokenize("  বাংলা  ") == ["বাংলা"]

    def test_one_char_words_survive_tokenization(self):
        assert tokenize("ক খ গ") == ["ক", "খ", "গ"]

    def test_empty(self):
        assert tokenize("") == []

    def test_raw_text_is_cleaned_in_the_same_pass(self):
        # Latin, a comma and Bengali digits split words; a joiner inside one goes
        assert tokenize("abcবাংলা,দে\u200cশ১২৩ ক") == ["বাংলা", "দেশ", "ক"]

    @given(raw_texts)
    def test_equals_clean_text_then_whitespace_split(self, text):
        assert tokenize(text) == clean_text(text).split()


class TestBuildLexicon:
    def test_dedup_and_one_char_removal(self):
        lex = build_lexicon(["বাংলা", "বাংলা", "ক"])
        assert lex.words == ("বাংলা",)
        assert lex.total_tokens == 3
        assert lex.unique_tokens == 1

    def test_surrounding_whitespace_trimmed(self):
        assert build_lexicon([" কখ ", "কখ"]).words == ("কখ",)

    def test_empty(self):
        lex = build_lexicon([])
        assert lex.words == ()
        assert (lex.total_tokens, lex.unique_tokens) == (0, 0)

    def test_order_is_length_then_lexicographic(self):
        lex = build_lexicon(["গঘ", "কখগ", "কখ", "কখঘ"])
        assert lex.words == ("কখ", "গঘ", "কখগ", "কখঘ")

    @given(st.lists(bengali_tokens))
    def test_invariants(self, tokens):
        lex = build_lexicon(tokens)
        assert lex.unique_tokens == len(lex.words) <= lex.total_tokens
        keys = [lexicon_sort_key(w) for w in lex.words]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert all(len(w) >= 2 for w in lex.words)

    @given(st.lists(bengali_tokens))
    def test_deterministic_in_token_multiset(self, tokens):
        assert build_lexicon(tokens) == build_lexicon(list(reversed(tokens)))

    # tokens are drawn from a small pool, so most lists repeat some
    @given(st.lists(padded_tokens, max_size=8).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=30) if pool else st.just([])
    ))
    def test_matches_strip_then_deduplicate_oracle(self, tokens):
        got, want = build_lexicon(tokens), build_lexicon_oracle(tokens)
        assert (got.words, got.total_tokens) == (want.words, want.total_tokens)


class TestPipeline:
    @given(st.text())
    def test_unique_at_most_token_count(self, doc):
        tokens = tokenize(clean_text(doc))
        lex = build_lexicon(tokens)
        assert lex.unique_tokens <= len(tokens)

    @given(st.text())
    def test_lexicon_words_are_clean_bengali(self, doc):
        lex = build_lexicon(tokenize(clean_text(doc)))
        for word in lex.words:
            assert len(word) >= 2
            for ch in word:
                code = ord(ch)
                assert 0x0980 <= code <= 0x09FF
                assert not 0x09E6 <= code <= 0x09EF

    def test_demo_corpus_counts(self, demo_corpus):
        lex = build_lexicon(tokenize(clean_text(read_text(demo_corpus))))
        assert lex.total_tokens == 60
        assert lex.unique_tokens == 48


class TestLexiconType:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Lexicon(words=("কখগ", "কখ"), total_tokens=2)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Lexicon(words=("কখ", "কখ"), total_tokens=2)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            Lexicon(words=("কখ",), total_tokens=0)

    def test_rejects_word_starting_with_comment_mark(self):
        # every line reader skips '#' lines, so such a word could not be read back
        with pytest.raises(FormatError, match="starts with '#'") as err:
            build_lexicon(["#ab", "cd", "ef"])
        assert err.value.line == 2
        assert Lexicon(words=("a#", "b#c"), total_tokens=2).words == ("a#", "b#c")

    def test_rejects_word_starting_with_byte_order_mark(self, tmp_path):
        # every reader drops one leading U+FEFF, so such a word would come back without it
        with pytest.raises(FormatError, match="byte-order mark") as err:
            Lexicon(words=("ab", "\ufeffab"), total_tokens=2)
        assert err.value.line == 1
        assert Lexicon(words=("a\ufeff",), total_tokens=1).words == ("a\ufeff",)
        path = tmp_path / "lex.txt"
        path.write_bytes(codecs.BOM_UTF8 * 2 + "ab\n".encode("utf-8"))
        with pytest.raises(FormatError, match="byte-order mark") as err:
            read_lexicon(path)
        assert err.value.line == 1


class TestLexiconFiles:
    def test_round_trip(self, tmp_path):
        lex = build_lexicon(["কখ", "গঘ", "কখগ", "কখ"])
        path = tmp_path / "lex.txt"
        write_lexicon(lex, path, stats=True)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("#stats total=4 unique=3\n")
        assert text.endswith("\n")
        loaded = read_lexicon(path)
        assert loaded == lex

    def test_round_trip_without_stats(self, tmp_path):
        lex = build_lexicon(["কখ", "গঘ"])
        path = tmp_path / "lex.txt"
        write_lexicon(lex, path)
        loaded = read_lexicon(path)
        assert loaded.words == lex.words
        assert loaded.total_tokens == loaded.unique_tokens == 2

    def test_rejects_out_of_order_file(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("কখগ\nকখ\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_lexicon(path)
        assert err.value.line == 2

    def test_rejects_one_char_word(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("ক\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_lexicon(path)
        assert err.value.line == 1

    def test_rejects_embedded_whitespace(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("ক\tখ\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_lexicon(path)

    def test_rejects_stats_total_below_unique(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("#stats total=1 unique=2\nকখ\nগঘ\n", encoding="utf-8")
        with pytest.raises(FormatError, match="total < unique") as err:
            read_lexicon(path)
        assert err.value.line == 1

    def test_rejects_stats_unique_other_than_word_count(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("কখ\n#stats total=10 unique=1\nগঘ\nকখগ\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_lexicon(path)
        assert err.value.line == 2
        assert "unique=1" in str(err.value)
        assert "3 words" in str(err.value)

    def test_rejects_second_stats_line(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("#stats total=5 unique=2\nকখ\n#stats total=9 unique=2\nগঘ\n", encoding="utf-8")
        with pytest.raises(FormatError, match="second #stats line") as err:
            read_lexicon(path)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "line",
        [
            "#stats",
            "#stats total=5",
            "#stats unique=2 total=5",
            "#stats total=5 unique=2 extra",
            "#stats total=five unique=2",
            "#stats\ttotal=5 unique=2",
            "#stats total=১০ unique=২",
            "#stats total=5 unique=2  ",
            "#stats total=5 unique=2\u3000",
        ],
    )
    def test_rejects_malformed_stats_line(self, tmp_path, line):
        path = tmp_path / "lex.txt"
        path.write_text(f"কখ\n{line}\nগঘ\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_lexicon(path)
        assert err.value.line == 2
        assert repr(line) in str(err.value)

    @pytest.mark.parametrize("line", ["# stats total=5", "#statistics total=5"])
    def test_other_comment_lines_are_skipped(self, tmp_path, line):
        path = tmp_path / "lex.txt"
        path.write_text(f"কখ\n{line}\nগঘ\n", encoding="utf-8")
        lexicon = read_lexicon(path)
        assert lexicon.words == ("কখ", "গঘ")
        assert lexicon.total_tokens == 2

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_bytes(codecs.BOM_UTF8 + "#stats total=3 unique=2\nকাজ\nকাজের\n".encode("utf-8"))
        lexicon = read_lexicon(path)
        assert lexicon.words == ("কাজ", "কাজের")
        assert lexicon.total_tokens == 3
        # only one leading mark is dropped; a second one is text
        path.write_bytes(codecs.BOM_UTF8 * 2 + b"ab")
        assert read_text(path) == "\ufeffab"

    @given(
        words=st.lists(
            st.text(alphabet="কখগঘঙ", min_size=2, max_size=5), min_size=2, max_size=10, unique=True
        ).map(lambda words: sorted(words, key=lexicon_sort_key)),
        fillers=st.lists(st.lists(st.sampled_from(["", "#", "# note"]), max_size=3), min_size=11),
        breakage=st.sampled_from(["one-character word", "contains whitespace", "out of order"]),
        space=st.sampled_from([" ", "\t", "\r", "\u00a0", "\u3000"]),
        data=st.data(),
    )
    def test_broken_word_is_reported_at_its_file_line(
        self, tmp_path_factory, words, fillers, breakage, space, data
    ):
        broken = data.draw(st.integers(breakage == "out of order", len(words) - 1))
        if breakage == "one-character word":
            words[broken] = words[broken][0]
        elif breakage == "contains whitespace":
            words[broken] = words[broken][0] + space + words[broken][1:]
        else:
            words[broken] = words[broken - 1]
        lines = []
        for index, word in enumerate(words):
            lines.extend(fillers[index])
            if index == broken:
                expected_line = len(lines) + 1
            lines.append(word)
        path = tmp_path_factory.getbasetemp() / "broken_lexicon.txt"
        path.write_bytes("\n".join(lines).encode("utf-8"))
        with pytest.raises(FormatError) as err:
            read_lexicon(path)
        assert err.value.line == expected_line
        # a CR is refused by the line reader, as in every line file
        crlf = breakage == "contains whitespace" and space == "\r"
        assert ("CRLF line endings" if crlf else breakage) in str(err.value)

    def test_invalid_utf8_rejected_at_load(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(InputEncodingError):
            read_text(path)
