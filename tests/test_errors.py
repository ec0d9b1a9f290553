import inspect
import pickle

import pytest

from cechmod import errors
from cechmod.errors import CechmodError, NoIdentity

ERROR_CLASSES = sorted(
    (cls for _, cls in inspect.getmembers(errors, inspect.isclass)
     if issubclass(cls, CechmodError) and cls.__module__ == errors.__name__),
    key=lambda cls: cls.__name__)

SAMPLE_ARGS = {"int": 3, "tuple": (0, 1, 2), "str": "msg",
               "CechmodError": NoIdentity()}


def _instance(cls):
    if "__init__" not in vars(cls):
        return cls("msg", 7)
    params = list(inspect.signature(cls).parameters.values())
    return cls(*(SAMPLE_ARGS[p.annotation] for p in params
                 if p.default is inspect.Parameter.empty))


def _comparable(value):
    return (type(value), str(value)) if isinstance(value, BaseException) else value


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_survives_pickling(cls):
    exc = _instance(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args
    assert {k: _comparable(v) for k, v in vars(back).items()} == \
        {k: _comparable(v) for k, v in vars(exc).items()}
