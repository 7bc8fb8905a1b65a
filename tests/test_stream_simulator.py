"""Tests for the stream event types (the replay loop is tested in
``test_scenario_driver.py``)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.stream.events import Delivery, Post


class TestEvents:
    def test_post_validation(self):
        with pytest.raises(ConfigError):
            Post(msg_id=-1, author_id=0, text="x", timestamp=0.0)

    def test_events_are_frozen(self):
        post = Post(msg_id=0, author_id=1, text="x", timestamp=0.0)
        with pytest.raises(AttributeError):
            post.text = "y"  # type: ignore[misc]

    def test_delivery_fields(self):
        delivery = Delivery(msg_id=1, user_id=2, timestamp=3.0)
        assert (delivery.msg_id, delivery.user_id) == (1, 2)
