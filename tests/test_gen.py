import pytest

from plam.gen import closed_corpus


@pytest.mark.parametrize("count, max_size", ((1, 1), (2, 2)))
def test_closed_corpus_rejects_a_count_that_cannot_fit(count, max_size):
    # no closed term has size 1, and only \x.x has size 2
    with pytest.raises(ValueError, match=f"of {count} distinct closed terms"):
        closed_corpus(0, count, max_size=max_size)

