"""The generator draws whole rows, with the stream of one call per degree."""

import draw_stream


def test_generator_draws_equal_the_calls_one_at_a_time():
    assert draw_stream.disagreements() == []
