import pytest

from widthk.stats import scanner


@pytest.fixture
def word_counter():
    """
    stats.scanner over a list of words: word_counter(statistic, n, widths)
    maps a list of words of length n to their counts, handing the scanner
    the batch as it takes one, its columns and its number of words.
    """
    def counter(statistic, n, widths):
        count = scanner(statistic, n, widths)
        return lambda words: count(list(zip(*words)), len(words))

    return counter
