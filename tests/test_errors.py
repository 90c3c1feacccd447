import pytest

from fixpoint import errors
from fixpoint.errors import DomainExitError, FixpointError, UnknownMapError

_CLASSES = sorted((c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, FixpointError)),
                  key=lambda c: c.__name__)


def test_payload_fields_are_set_by_keyword_and_default_to_none():
    exc = DomainExitError("left the domain", t=0.5)
    assert (exc.t, exc.point, exc.last_inside) == (0.5, None, None)
    assert str(exc) == "left the domain" and exc.args == ("left the domain",)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
def test_a_keyword_outside_the_payload_is_refused(cls):
    with pytest.raises(TypeError):
        cls("message", not_a_field=1.0)


def test_an_unknown_map_message_is_the_text_itself():
    # not the repr a KeyError makes of its argument
    assert str(UnknownMapError("unknown map 'x'")) == "unknown map 'x'"
