"""Word enumeration for the tests: the length-lexicographic list of words
that the library's index arithmetic (``TruncatedFock.word_index``) encodes,
kept here as the oracle the per-word references iterate."""

from fockbench import Word
from fockbench.errors import InvalidParameterError

IDENTITY_WORD = Word(())


def enumerate_words(n: int, max_len: int) -> list[Word]:
    """All words of length <= max_len in length-lexicographic order.

    Index 0 is the identity word; the degree-k slice holds exactly n**k words.
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1 generators, got {n}")
    if max_len < 0:
        raise InvalidParameterError(f"need max_len >= 0, got {max_len}")
    words: list[Word] = [IDENTITY_WORD]
    level: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        level = [w + (i,) for w in level for i in range(1, n + 1)]
        words.extend(Word(w) for w in level)
    return words
